"""Differential tests of the exact linear algebra.

Kernels and ranks come from fraction-free Gauss-Jordan elimination over
the integers.  They must agree entry for entry with the Fraction
Gauss-Jordan reference below, with sympy where sympy is installed, and
with the certified multi-modular kernel of `tests/oracles.py`, which the
integer core replaced; that oracle's own prime sequence, back
substitution and Chinese remaindering are tested here too.  A corrupted
elimination must end in VerificationFailed, also under python -O.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import P0
from primpoints import formats, hyperell, linalg, pipeline
from primpoints.arith import is_prime
from primpoints.errors import VerificationFailed

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")

# --- reference: exact Fraction Gauss-Jordan --------------------------------


def ref_kernel(rows, ncols):
    work = [[Fraction(c) for c in row] for row in rows if any(row)]
    pivots = {}
    rk = 0
    for col in range(ncols):
        pivot = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        pv = work[rk][col]
        work[rk] = [c / pv for c in work[rk]]
        for i in range(len(work)):
            if i != rk and work[i][col]:
                f = work[i][col]
                work[i] = [c - f * d for c, d in zip(work[i], work[rk])]
        pivots[col] = rk
        rk += 1
        if rk == len(work):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, prow in pivots.items():
            vec[pc] = -work[prow][fc]
        basis.append(vec)
    return basis


def ref_rank(rows):
    rows = [row for row in rows if any(row)]
    return len(rows[0]) - len(ref_kernel(rows, len(rows[0]))) if rows else 0


def ref_det(matrix):
    n = len(matrix)
    work = [[Fraction(c) for c in row] for row in matrix]
    sign, result = 1, Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        pv = work[col][col]
        result *= pv
        for i in range(col + 1, n):
            f = work[i][col] / pv
            work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return result * sign


# --- generated matrices ----------------------------------------------------

small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def low_rank_matrices(draw, square=False):
    """X Y with X of shape m x r and Y of shape r x n, plus zero rows."""
    n = draw(st.integers(1, 7))
    m = n if square else draw(st.integers(1, 8))
    r = draw(st.integers(0, min(m, n)))
    X = [[draw(small) for _ in range(r)] for _ in range(m)]
    Y = [[draw(small) for _ in range(n)] for _ in range(r)]
    rows = [[sum((X[i][k] * Y[k][j] for k in range(r)), Fraction(0)) for j in range(n)]
            for i in range(m)]
    if not square and draw(st.booleans()):
        rows.insert(draw(st.integers(0, m)), [Fraction(0)] * n)
    return rows, n


@given(low_rank_matrices())
def test_kernel_and_rank_match_reference(case):
    rows, n = case
    basis = linalg.kernel_basis(rows, n)
    assert basis == ref_kernel(rows, n)
    assert all(type(c) is Fraction for vec in basis for c in vec)
    assert linalg.rank(rows) == ref_rank(rows) == n - len(basis)


@given(low_rank_matrices(square=True))
def test_det_matches_reference(case):
    rows, _ = case
    assert linalg.det(rows) == ref_det(rows)


@given(st.lists(st.lists(small, min_size=4, max_size=4), min_size=4, max_size=4))
def test_det_full_rank_matches_reference(rows):
    assert linalg.det(rows) == ref_det(rows)


@given(low_rank_matrices())
def test_kernel_rank_det_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    rows, n = case
    M = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows])
    expected = [[Fraction(int(e.p), int(e.q)) for e in v] for v in M.nullspace()]
    assert linalg.kernel_basis(rows, n) == expected
    assert linalg.rank(rows) == M.rank()
    if M.rows == M.cols:
        det = M.det()
        assert linalg.det(rows) == Fraction(int(det.p), int(det.q))


# --- inputs singular modulo the modular oracle's first prime ---------------


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0, 0], [0, P0, 1]],  # same rank mod P0, later pivot
        [[1, 0, 0], [0, P0, 0]],  # lower rank mod P0
        [[P0, 0], [0, 1]],  # singular mod P0 only
        [[P0, 1], [P0 * P0, P0 + 1], [3, Fraction(1, P0)]],
    ],
)
def test_singular_mod_first_prime_only(rows):
    n = len(rows[0])
    assert linalg.kernel_basis(rows, n) == ref_kernel(rows, n) == oracles.modular_kernel(rows, n)
    assert linalg.rank(rows) == ref_rank(rows)
    if len(rows) == n:
        assert linalg.det(rows) == ref_det(rows) != 0


# --- back substitution against Gauss-Jordan mod p ---------------------------


def gauss_jordan_residues(rows, ncols, p):
    """(pivots, residues) from the reduced row-echelon form mod p: per free
    column fc, -row[fc] of each pivot row, as the kernel read them before
    back substitution."""
    work = [[v % p for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        pivot = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        inv = pow(work[rk][col], -1, p)
        work[rk] = prow = [v * inv % p for v in work[rk]]
        for i in range(len(work)):
            if i != rk and work[i][col]:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], prow)]
        pivots.append(col)
    residues = [[-work[r][fc] % p for r in range(len(pivots))]
                for fc in range(ncols) if fc not in pivots]
    return pivots, residues


@st.composite
def echelon_cases(draw):
    """n - k random integer rows on n columns, a zero column and a repeated
    row at will, and a prime that may be small enough to lose rank."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, min(3, n)))
    rows = [draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) for _ in range(n - k)]
    if draw(st.booleans()):
        zero = draw(st.integers(0, n - 1))
        for row in rows:
            row[zero] = 0
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return rows, n, draw(st.sampled_from([7, 101, P0]))


@given(echelon_cases())
@settings(max_examples=40, deadline=None)
@example(([[1, 2], [3, 4]], 2, P0))  # no free column
@example(([[1, 2, 3], [4, 5, 6]], 3, P0))  # one
@example(([[0, 1, 2, 3], [0, 2, 1, 1]], 4, P0))  # two, one of them a zero column
@example(([[1, 2, 3, 4, 5], [0, 1, 1, 1, 1], [1, 2, 3, 4, 5]], 5, P0))  # three, a repeated row
@example(([[1, 2, 3], [4, 5, 6]], 3, 3))  # rank lost mod 3
def test_back_substitution_matches_gauss_jordan(case):
    rows, n, p = case
    pivots, residues = gauss_jordan_residues(rows, n, p)
    pivots_e, echelon = oracles.echelon_mod(rows, n, p)
    assert pivots_e == pivots
    assert oracles.back_substitute(pivots, echelon, n, p) == residues


def _counting_echelon(monkeypatch):
    calls = []
    original = oracles.echelon_mod

    def counted(rows, ncols, p):
        calls.append(p)
        return original(rows, ncols, p)

    monkeypatch.setattr(oracles, "echelon_mod", counted)
    return calls


def test_huge_kernel_entries_force_crt(monkeypatch):
    a, b = 3**40, 2**63 + 5  # coprime, both beyond 2^62
    rows = [[a, b, 0], [0, 1, 1]]
    calls = _counting_echelon(monkeypatch)
    basis = oracles.modular_kernel(rows, 3)
    assert basis == ref_kernel(rows, 3) == [[Fraction(b, a), Fraction(-1), Fraction(1)]]
    assert basis == linalg.kernel_basis(rows, 3)
    assert len(calls) > 2 and calls == list(oracles.PRIMES[: len(calls)])


def test_full_rank_needs_one_prime(monkeypatch):
    calls = _counting_echelon(monkeypatch)
    assert oracles.modular_kernel([[2, 1], [1, 1]], 2) == []
    assert calls == [P0]


def test_empty_and_zero_rows():
    identity = [[Fraction(int(i == k)) for i in range(3)] for k in range(3)]
    assert linalg.kernel_basis([], 3) == identity
    assert linalg.kernel_basis([[0, 0, 0], [Fraction(0)] * 3], 3) == identity
    assert linalg.kernel_basis([], 0) == []
    assert linalg.rank([]) == 0
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.det([]) == 1
    assert linalg.det([[0]]) == 0
    assert linalg.det([[0, 1], [1, 0]]) == -1


def test_rank_does_not_count_as_a_kernel_call(monkeypatch):
    def forbidden(rows, ncols):
        raise AssertionError("rank went through kernel_basis")

    monkeypatch.setattr(linalg, "kernel_basis", forbidden)
    assert linalg.rank([[1, 2], [2, 4]]) == 1


def test_prime_sequence_is_fixed_and_extends_lazily():
    primes = list(itertools.islice(oracles.primes(), len(oracles.PRIMES) + 2))
    assert primes[len(oracles.PRIMES):] == [2147483489, 2147483477]
    assert primes[0] == 2**31 - 1
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in range(primes[-1] + 1, 2**31) if n not in primes)


# --- the integer core against the modular oracle ---------------------------


def test_core_matches_the_modular_oracle_on_x0_71(monkeypatch):
    # the kernel systems `classify_points` builds on X0(71) at d = 3..6
    with open(os.path.join(FIXTURES, "x0_71.curve"), encoding="utf-8") as fh:
        curve = hyperell.curve_new(formats.parse_curve_file(fh.read())[0])
    with open(os.path.join(FIXTURES, "x0_71.mw"), encoding="utf-8") as fh:
        mw = formats.parse_mw_file(fh.read(), curve)
    systems = []
    original = hyperell.kernel_basis

    def recording(rows, ncols):
        systems.append((rows, ncols))
        return original(rows, ncols)

    monkeypatch.setattr(hyperell, "kernel_basis", recording)
    for d in (3, 4, 5, 6):
        pipeline.classify_points(curve, mw, d)
    assert len(systems) == 72 and any(linalg.kernel_basis(r, n) for r, n in systems)
    for rows, ncols in systems:
        assert linalg.kernel_basis(rows, ncols) == oracles.modular_kernel(rows, ncols)


wide = st.integers(-(2**70), 2**70)


@st.composite
def wide_low_rank_matrices(draw):
    """X Y with entries of X and Y up to 2^70, so kernel entries pass 2^62."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    r = draw(st.integers(0, min(m, n)))
    X = [[draw(wide) for _ in range(r)] for _ in range(m)]
    Y = [[draw(wide) for _ in range(n)] for _ in range(r)]
    return [[sum(X[i][k] * Y[k][j] for k in range(r)) for j in range(n)] for i in range(m)], n


@given(wide_low_rank_matrices())
@settings(max_examples=40, deadline=None)
@example(([[2**70 - 1, 2**69 + 3]], 2))  # five primes before the check passes
def test_core_matches_the_modular_oracle_on_wide_entries(case):
    rows, n = case
    assert linalg.kernel_basis(rows, n) == oracles.modular_kernel(rows, n) == ref_kernel(rows, n)


# --- the exact check is the gate -------------------------------------------


def check_corrupted_kernel_raises():
    """An elimination result missing a pivot row must be rejected, not returned."""
    original = linalg._eliminate

    def corrupted(rows, ncols):
        pivots, reduced = original(rows, ncols)
        return pivots[:-1], reduced[:-1]

    linalg._eliminate = corrupted
    try:
        linalg.kernel_basis([[1, 2, 3], [4, 5, 6]], 3)
    except VerificationFailed:
        return
    finally:
        linalg._eliminate = original
    raise AssertionError("a corrupted elimination was accepted")


def test_corrupted_modular_result_raises():
    check_corrupted_kernel_raises()


def test_corrupted_modular_result_raises_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, "..", "src")
    code = (
        f"import sys; sys.path[:0] = [{src!r}, {here!r}]\n"
        "import test_linalg\n"
        "test_linalg.check_corrupted_kernel_raises()\n"
        "print(sys.flags.optimize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"
