"""Shared text formats: polynomial literals, divisors, curve and group files.

One grammar, one parser for every entry point.  Polynomials have two
interchangeable renderings: the repo-wide coefficient format
``c0 c1 ... cn`` (whitespace-separated rationals, lowest degree first)
and the CLI literal ``x^4-2`` with ``^`` and rational coefficients.
Parsing accepts both; anything containing an ``x`` is read as a literal.

Divisor literals follow ``k*(p(x); branch; q(x)) + m*oo+ + n*oo-`` with
terms joined by `` + `` and signed integer multiplicities.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .arith import UniPoly
from .errors import BadInput, ParseError
from .hyperell import INERT, OO, OO_MINUS, OO_PLUS, RAM, SPLIT, ClosedPoint, Divisor, HyperCurve
from .hyperell import require_infinite_places
from .pipeline import Cover, CoverRow, MWSpec

_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?(?:\d+(?:/\d+)?)?)"
    r"(?:\*?(?P<x>x)(?:\^(?P<exp>\d+))?)?$"
)


def parse_poly(text: str) -> UniPoly:
    """Parse either a coefficient list or a symbolic literal."""
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    if "x" in text:
        return _parse_poly_literal(text)
    return parse_coeff_text(text)


def _rational(token: str) -> Fraction:
    """One coefficient token of either notation, `p` or `p/q`; a zero
    denominator is a ParseError like any other bad token."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coefficient: {exc}") from exc


def parse_coeff_text(text: str) -> UniPoly:
    """Whitespace-separated rationals, lowest degree first."""
    coeffs = [_rational(tok) for tok in text.split()]
    if not coeffs:
        raise ParseError("empty coefficient list")
    return UniPoly.make(coeffs)


def poly_coeff_text(p: UniPoly) -> str:
    if p.is_zero:
        return "0"
    return " ".join(str(c) for c in p.coeffs)


def _parse_poly_literal(text: str) -> UniPoly:
    compact = text.replace(" ", "")
    if not compact:
        raise ParseError("empty polynomial literal")
    # split into signed terms
    terms = []
    current = ""
    for i, ch in enumerate(compact):
        if ch in "+-" and i > 0 and compact[i - 1] not in "+-*/^":
            terms.append(current)
            current = ch
        else:
            current += ch
    terms.append(current)
    coeffs = {}
    for term in terms:
        if not term or term in "+-":
            raise ParseError(f"dangling sign in polynomial literal {text!r}")
        m = _TERM_RE.match(term)
        if not m or (not m.group("coef").strip("+-") and not m.group("x")):
            raise ParseError(f"bad term {term!r} in polynomial literal")
        coef_text = m.group("coef")
        if coef_text in ("", "+"):
            coef = Fraction(1)
        elif coef_text == "-":
            coef = Fraction(-1)
        else:
            coef = _rational(coef_text)
        if m.group("x"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + coef
    out = [Fraction(0)] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return UniPoly.make(out)


# ---------------------------------------------------------------------------
# Divisor literals


def parse_divisor(text: str, curve: HyperCurve = None) -> Divisor:
    """The divisor of a literal; with a curve, each place at infinity must
    be one of the curve's (InfinitePlace otherwise)."""
    text = text.strip()
    if text == "0":
        return Divisor.zero()
    terms = _split_top_level(text)
    pairs = []
    for term in terms:
        term = term.strip()
        if "*" not in term:
            raise ParseError(f"divisor term {term!r} needs 'mult*point'")
        mult_text, point_text = term.split("*", 1)
        try:
            mult = int(mult_text)
        except ValueError as exc:
            raise ParseError(f"bad multiplicity {mult_text!r}") from exc
        pairs.append((_parse_point(point_text.strip(), curve), mult))
    return Divisor.make(pairs)


def _split_top_level(text: str):
    terms = []
    depth = 0
    current = ""
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and text[i : i + 3] == " + ":
            terms.append(current)
            current = ""
            i += 3
            continue
        current += ch
        i += 1
    terms.append(current)
    return terms


def _parse_point(text: str, curve: HyperCurve = None) -> ClosedPoint:
    if text in (OO_PLUS, OO_MINUS, OO):
        # here, before `Divisor.make` drops a term of multiplicity 0
        if curve is not None:
            require_infinite_places(curve, (text,))
        return ClosedPoint.infinite(text)
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"bad point literal {text!r}")
    fields = [f.strip() for f in text[1:-1].split(";")]
    if len(fields) < 2:
        raise ParseError(f"point literal {text!r} needs (p; branch[; q])")
    p = parse_poly(fields[0])
    branch = fields[1]
    if branch == SPLIT:
        if len(fields) != 3:
            raise ParseError("split point needs its branch residue q")
        return ClosedPoint.affine(p, SPLIT, parse_poly(fields[2]) % p.monic())
    if branch in (RAM, INERT):
        return ClosedPoint.affine(p, branch)
    raise ParseError(f"unknown branch tag {branch!r}")


# ---------------------------------------------------------------------------
# Curve and Mordell-Weil files


def parse_curve_file(text: str):
    """Returns (UniPoly, label or None) from 'f:' / optional 'label:' lines."""
    f = None
    label = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("f:"):
            f = parse_poly(line[2:])
        elif line.startswith("label:"):
            label = line[6:].strip()
        else:
            raise ParseError(f"curve file line {lineno}: unknown directive {line!r}")
    if f is None:
        raise ParseError("curve file needs an 'f:' line")
    return f, label


def curve_file_text(f: UniPoly, label=None) -> str:
    lines = [f"f: {poly_coeff_text(f)}"]
    if label:
        lines.append(f"label: {label}")
    return "\n".join(lines) + "\n"


def parse_mw_file(text: str, curve: HyperCurve = None) -> MWSpec:
    """'order n' / 'gen <divisor>' lines in pairs, plus one 'base <divisor>';
    with a curve, its divisors are read as `parse_divisor` reads them."""
    orders = []
    gens = []
    base = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("order "):
            try:
                orders.append(int(line[6:]))
            except ValueError as exc:
                raise ParseError(f"mw file line {lineno}: bad order") from exc
        elif line.startswith("gen "):
            gens.append(parse_divisor(line[4:], curve))
        elif line.startswith("base "):
            base = parse_divisor(line[5:], curve)
        else:
            raise ParseError(f"mw file line {lineno}: unknown directive {line!r}")
    if len(orders) != len(gens):
        raise ParseError("mw file needs matching 'order' and 'gen' lines")
    if base is None:
        raise ParseError("mw file needs a 'base' line")
    if not orders:
        raise ParseError("mw file needs at least one cyclic factor")
    return MWSpec(tuple(zip(orders, gens)), base)


def mw_file_text(mw: MWSpec) -> str:
    lines = []
    for order, gen in mw.cyclic_factors:
        lines.append(f"order {order}")
        lines.append(f"gen {gen.literal()}")
    lines.append(f"base {mw.base.literal()}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cover-table CSV

COVER_HEADER = ["label", "g", "cover_kind", "m", "gprime", "jq_finite", "j_simple", "d_range"]
VERDICT_HEADER = ["label", "finite_d", "primitive_only_d"]


def parse_cover_csv(text: str):
    import csv
    import io

    rows = []
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ParseError("empty cover CSV")
    if [h.strip() for h in reader.fieldnames] != COVER_HEADER:
        raise ParseError(
            f"cover CSV header must be {','.join(COVER_HEADER)}"
        )
    for lineno, record in enumerate(reader, 2):
        try:
            kind = record["cover_kind"].strip()
            m = int(record["m"])
            gprime_text = record["gprime"].strip()
            gprime = int(gprime_text) if gprime_text else None
            lo, hi = record["d_range"].split("-")
            row = CoverRow(
                record["label"].strip(),
                int(record["g"]),
                Cover(kind, m, gprime),
                _parse_bool(record["jq_finite"]),
                _parse_bool(record["j_simple"]),
                (int(lo), int(hi)),
            )
        except (KeyError, ValueError, AttributeError, BadInput) as exc:
            raise ParseError(f"cover CSV line {lineno}: {exc}") from exc
        rows.append(row)
    return rows


def _parse_bool(text: str) -> bool:
    text = text.strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"bad boolean {text!r}")


def verdict_csv_text(results) -> str:
    """results: list of (label, finite list, primitive-only list)."""
    lines = [",".join(VERDICT_HEADER)]
    for label, finite, prim in results:
        lines.append(
            f"{label},{' '.join(str(d) for d in finite)},"
            f"{' '.join(str(d) for d in prim)}"
        )
    return "\n".join(lines) + "\n"
