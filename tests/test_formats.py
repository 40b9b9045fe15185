from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primpoints.arith import UniPoly, poly
from conftest import X0_71_COEFFS
from primpoints.errors import InfinitePlace, ParseError
from primpoints.formats import (
    curve_file_text,
    mw_file_text,
    parse_coeff_text,
    parse_cover_csv,
    parse_curve_file,
    parse_divisor,
    parse_mw_file,
    parse_poly,
    poly_coeff_text,
    verdict_csv_text,
)
from primpoints.hyperell import OO_MINUS, OO_PLUS, RAM, SPLIT, ClosedPoint, Divisor, curve_new


def test_parse_poly_literal():
    assert parse_poly("x^4-2") == poly(-2, 0, 0, 0, 1)
    assert parse_poly("x") == poly(0, 1)
    assert parse_poly("-x^2+3x-1/2") == poly(Fraction(-1, 2), 3, -1)
    assert parse_poly("2x") == poly(0, 2)
    assert parse_poly("7") == poly(7)
    assert parse_poly("1/2*x^3 + x") == poly(0, 1, 0, Fraction(1, 2))
    assert parse_poly("x^2+x+x") == poly(0, 2, 1)  # merged terms


def test_parse_poly_coeff_format():
    assert parse_poly("-11 4 1") == poly(-11, 4, 1)
    assert parse_poly("3/2") == poly(Fraction(3, 2))


def test_parse_poly_errors():
    for bad in ["", "x^", "x+*2", "^3", "x^-2", "y+1", "x^2+1/0", "0/0*x", "1 1/0"]:
        with pytest.raises(ParseError):
            parse_poly(bad)


@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
        min_size=1,
        max_size=7,
    )
)
@settings(max_examples=60)
def test_poly_roundtrips(coeffs):
    p = UniPoly.make(coeffs)
    assert parse_coeff_text(poly_coeff_text(p)) == p
    if not p.is_zero:
        assert parse_poly(p.literal()) == p


def test_divisor_roundtrip():
    D = Divisor.make(
        [
            (ClosedPoint.infinite(OO_PLUS), 3),
            (ClosedPoint.infinite(OO_MINUS), -1),
            (ClosedPoint.affine(poly(-2, 0, 0, 1), RAM), 2),
            (ClosedPoint.affine(poly(0, 1), SPLIT, poly(1)), 1),
        ]
    )
    text = D.literal()
    assert parse_divisor(text) == D
    assert parse_divisor("0").is_zero
    assert "oo+" in text and "ram" in text and "split" in text


def test_divisor_parse_errors():
    with pytest.raises(ParseError):
        parse_divisor("oo+")  # missing multiplicity
    with pytest.raises(ParseError):
        parse_divisor("1*(x^2-2)")  # missing branch
    with pytest.raises(ParseError):
        parse_divisor("1*(x^2-2; weird)")


EVEN_MODEL = curve_new(poly(1, 0, 0, 0, 0, 0, 1))  # places oo+ and oo- at infinity
ODD_MODEL = curve_new(poly(1, 0, 0, 0, 0, 1))  # the single place oo
MODELS = {"even": EVEN_MODEL, "odd": ODD_MODEL}
X0_71 = curve_new(UniPoly.make(X0_71_COEFFS))
X0_71_MW = "order 35\ngen 1*oo+ + -1*oo-\nbase 1*oo+ + 1*oo-\n"


# (model, literal, the divisor it parses to without a curve)
LACKING_PLACES = [
    ("even", "3*oo", "3*oo"),
    ("even", "3*oo+ + 0*oo", "3*oo+"),
    ("even", "0*oo + 1*(x; split; 1)", "1*(x; split; 1)"),
    ("odd", "3*oo+", "3*oo+"),
    ("odd", "3*oo + 0*oo-", "3*oo"),
    ("odd", "1*(x; split; 1) + 0*oo-", "1*(x; split; 1)"),
]


@pytest.mark.parametrize("model, text, parsed", LACKING_PLACES)
def test_parse_divisor_rejects_each_infinite_place_the_model_lacks(model, text, parsed):
    with pytest.raises(InfinitePlace, match="is not a place of the curve"):
        parse_divisor(text, MODELS[model])
    assert parse_divisor(text).literal() == parsed


@pytest.mark.parametrize("model, text, _", LACKING_PLACES)
def test_parse_mw_file_rejects_each_infinite_place_the_model_lacks(model, text, _):
    curve = MODELS[model]
    places = " + ".join(f"1*{place}" for place in curve.infinite_places)
    for mw in (f"order 1\ngen 0\nbase {text}\n", f"order 2\ngen {text}\nbase {places}\n"):
        with pytest.raises(InfinitePlace, match="is not a place of the curve"):
            parse_mw_file(mw, curve)


def test_parse_mw_file_without_a_curve_keeps_places_the_model_lacks():
    mw = parse_mw_file("order 35\ngen 1*oo+ + -1*oo- + 0*oo\nbase 2*oo\n")
    assert mw == parse_mw_file("order 35\ngen 1*oo+ + -1*oo-\nbase 2*oo\n")
    assert mw.base.literal() == "2*oo"


def test_parsing_against_a_curve_accepts_its_own_places():
    assert parse_divisor("3*oo+ + 0*oo-", EVEN_MODEL) == parse_divisor("3*oo+")
    assert parse_divisor("3*oo + -1*oo", ODD_MODEL) == parse_divisor("2*oo")
    # a comment names no place
    mw = "# oo is no place of X0(71)\n" + X0_71_MW
    assert parse_mw_file(mw, X0_71) == parse_mw_file(X0_71_MW)


def test_curve_file_roundtrip():
    f = poly(-11, 4, 1)
    text = curve_file_text(f, "demo")
    parsed, label = parse_curve_file(text)
    assert parsed == f and label == "demo"
    with pytest.raises(ParseError):
        parse_curve_file("g: 1 2 3")


def test_mw_file_roundtrip():
    text = open("fixtures/x0_71.mw").read()
    mw = parse_mw_file(text)
    assert mw.order == 35
    assert mw.cyclic_factors[0][0] == 35
    assert mw.base.degree == 2
    assert parse_mw_file(mw_file_text(mw)) == mw
    with pytest.raises(ParseError):
        parse_mw_file("order 35\n")  # missing gen and base


def test_cover_csv_parse_and_verdict_text():
    rows = parse_cover_csv(open("fixtures/table1.csv").read())
    assert len(rows) == 30
    assert rows[0].label == "19" and rows[0].g == 7
    assert rows[16].label == "45" and rows[16].cover.gprime == 9
    out = verdict_csv_text([("45", [2, 3], [6])])
    assert out == "label,finite_d,primitive_only_d\n45,2 3,6\n"


@pytest.mark.parametrize("row, message", [
    ("x,5,gonal,1,,true,false,2-4", "m must be >= 2"),
    ("x,5,weird,2,1,true,false,2-4", "cover_kind must be gonal|relative, got 'weird'"),
    ("x,5,Gonal,2,,true,false,2-4", "cover_kind must be gonal|relative, got 'Gonal'"),
    ("x,41,relative,3,,true,false,2-5", "relative cover needs gprime >= 1"),
    ("x,41,relative,3,0,true,false,2-5", "relative cover needs gprime >= 1"),
    ("x,0,gonal,2,,true,false,2-4", "bad genus or degree range"),
    ("x,5,gonal,2,,true,false,1-4", "bad genus or degree range"),
    ("x,5,gonal,2,,true,false,4-3", "bad genus or degree range"),
    ("x,5,gonal,2,,true,false,2", "not enough values to unpack (expected 2, got 1)"),
    ("x,5,gonal,two,,true,false,2-4", "invalid literal for int() with base 10: 'two'"),
    ("x,5,gonal,2,,maybe,false,2-4", "bad boolean 'maybe'"),
    ("x,5,gonal,2,,true,false", "'NoneType' object has no attribute 'split'"),
])
def test_cover_csv_names_the_line_and_the_broken_rule(row, message):
    # the types check the rules; the parser reports them against the line
    header = "label,g,cover_kind,m,gprime,jq_finite,j_simple,d_range\n"
    with pytest.raises(ParseError) as exc:
        parse_cover_csv(header + "ok,5,gonal,2,,true,false,2-4\n" + row + "\n")
    assert str(exc.value) == f"cover CSV line 3: {message}"


def test_cover_csv_rejects_bad_rows():
    header = "label,g,cover_kind,m,gprime,jq_finite,j_simple,d_range\n"
    with pytest.raises(ParseError):
        parse_cover_csv(header + "x,5,relative,1,1,true,false,2-5\n")  # m = 1
    with pytest.raises(ParseError):
        parse_cover_csv(header + "x,5,weird,2,1,true,false,2-5\n")
    with pytest.raises(ParseError):
        parse_cover_csv("a,b\n1,2\n")
    assert parse_cover_csv(header) == []  # empty body is fine
