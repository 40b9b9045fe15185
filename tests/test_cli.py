import ast
import json
import os
import shutil

import pytest

from conftest import run_python
from primpoints import hyperell, numfield
from primpoints.cli import build_parser, main
from primpoints.errors import VerificationFailed

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "primpoints")
FORMATS_DOC = os.path.join(os.path.dirname(__file__), "..", "docs", "formats.md")


def fixture(name):
    return os.path.join(FIXTURES, name)


def test_classify_matches_expected(tmp_path, capsys):
    out = tmp_path / "verdicts.csv"
    code = main(["classify", fixture("table1.csv"), str(out)])
    assert code == 0
    assert out.read_text() == open(fixture("table1_expected.csv")).read()


def test_classify_empty_csv(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("label,g,cover_kind,m,gprime,jq_finite,j_simple,d_range\n")
    out = tmp_path / "out.csv"
    assert main(["classify", str(src), str(out)]) == 0
    assert out.read_text() == "label,finite_d,primitive_only_d\n"


def test_classify_rejects_m1(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text(
        "label,g,cover_kind,m,gprime,jq_finite,j_simple,d_range\n"
        "x,5,gonal,1,,true,false,2-4\n"
    )
    out = tmp_path / "out.csv"
    assert main(["classify", str(src), str(out)]) == 2


def test_missing_file_exit_code(tmp_path):
    assert main(["classify", str(tmp_path / "nope.csv"), str(tmp_path / "o")]) == 2
    assert main(["points", str(tmp_path / "nope"), fixture("x0_71.mw"), "4",
                 str(tmp_path / "r")]) == 2


def test_verification_failure_exit_code(tmp_path, capsys, monkeypatch):
    def failing(curve, D):
        raise VerificationFailed("basis element violates pole bounds")

    monkeypatch.setattr(hyperell, "rr_space", failing)
    curve = tmp_path / "c.curve"
    curve.write_text("f: 1 0 0 0 0 0 1\n")
    assert main(["rr", str(curve), "2*oo+ + 2*oo-"]) == 5
    assert "internal verification failed" in capsys.readouterr().err


def test_field_command(capsys):
    assert main(["field", "x^3-2"]) == 0
    assert capsys.readouterr().out.strip() == "primitive"
    assert main(["field", "x^4-2"]) == 0
    assert capsys.readouterr().out.strip() == "imprimitive (subfield degree 2)"
    assert main(["field", "x^2-1"]) == 4
    assert main(["field", "x^4-2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "primpoints.field/1"
    assert doc["primitive"] is False and doc["subfield_degrees"] == [2]


@pytest.mark.parametrize("optimize", [False, True])
def test_field_degree_one_warns_in_one_fixed_line(optimize):
    done = _run_cli(["field", "x-5"], optimize)
    assert done.returncode == 0
    assert done.stdout == "imprimitive (degree 1 convention)\n"
    assert done.stderr == "warning: degree-1 field treated as not primitive by convention\n"


def test_field_command_runs_the_subfield_search_once(capsys, monkeypatch):
    calls = []
    search = numfield.principal_subfields

    def counted(K, *patterns):
        calls.append(K.min_poly)
        return search(K, *patterns)

    monkeypatch.setattr(numfield, "principal_subfields", counted)
    assert main(["field", "x^4-2"]) == 0
    assert capsys.readouterr().out == "imprimitive (subfield degree 2)\n"
    assert len(calls) == 1


@pytest.mark.parametrize("lit", ["x^9+x+1", "x^10-x-1", "x^12-x-1"])
def test_field_command_certifies_large_primitive_fields_by_frobenius(lit, capsys, monkeypatch):
    def no_search(K):
        raise AssertionError("the subfield search must not run")

    monkeypatch.setattr(numfield, "principal_subfields", no_search)
    assert main(["field", lit]) == 0
    assert capsys.readouterr().out == "primitive\n"
    assert main(["field", lit, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "schema": "primpoints.field/1",
        "primitive": True,
    }


def test_rr_command(tmp_path, capsys):
    curve = tmp_path / "c.curve"
    curve.write_text("f: 1 0 0 0 0 0 1\n")
    assert main(["rr", str(curve), "2*oo+ + 2*oo-"]) == 0
    out = capsys.readouterr().out
    assert "ell=3" in out
    assert main(["rr", str(curve), "2*oo+ + 2*oo-", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ell"] == 3 and len(doc["basis"]) == 3


def test_points_on_two_cyclic_factors_match_the_cyclic_run(tmp_path):
    # Z/35 = Z/5 x Z/7 with generators 7*(oo+ - oo-) and 5*(oo+ - oo-):
    # class (a, b) is class 7a + 5b (mod 35) of the one-factor run
    mw = tmp_path / "z5xz7.mw"
    mw.write_text("order 5\ngen 7*oo+ + -7*oo-\norder 7\ngen 5*oo+ + -5*oo-\nbase 1*oo+ + 1*oo-\n")
    out = tmp_path / "report.txt"

    def classes(mw_path, d):
        assert main(["points", fixture("x0_71.curve"), mw_path, str(d), str(out)]) == 0
        lines = out.read_text().splitlines()
        return {line.split()[1]: line.split(maxsplit=2)[2] for line in lines if line.startswith("class ")}

    for d in (3, 4, 5, 6):
        cyclic = classes(fixture("x0_71.mw"), d)
        pairs = classes(str(mw), d)
        assert len(pairs) == len(cyclic) == 35
        for label, rest in pairs.items():
            a, b = map(int, label[3:-1].split(","))
            k = (7 * a + 5 * b + 17) % 35 - 17
            assert rest == cyclic[f"a={k}"], (d, label)


def test_rr_rejects_negative_affine(tmp_path):
    curve = tmp_path / "c.curve"
    curve.write_text("f: -4 0 0 0 0 0 1\n")
    assert main(["rr", str(curve), "-1*(x^3-2; ram)"]) == 3


def test_construct_command(capsys):
    assert main(["construct", "x^3-2"]) == 0
    out = capsys.readouterr().out
    assert "genus: 2" in out and "degree 3" in out
    assert main(["construct", "x^4-2"]) == 4


def test_perm_command(capsys):
    assert main(["perm", "(0 1 2 3)", "(0 2)"]) == 0
    out = capsys.readouterr().out
    assert "imprimitive blocks" in out and "{0 2}" in out
    assert main(["perm", "(0 1 2 3 4)", "(0 1)"]) == 0
    assert "primitive" in capsys.readouterr().out
    assert main(["perm", "(0 1)", "--degree", "4"]) == 4  # not transitive


def test_twists_command(capsys):
    assert main(["twists", "x^6+1", "--max-r", "3", "--height", "2"]) == 0
    out = capsys.readouterr().out
    assert "r=2" in out and "hits=" in out
    assert main(["twists", "x^6+1", "--max-r", "2", "--height", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "primpoints.twists/1"
    assert any(h["r"] == 2 for h in doc["hits"])


def test_fiber_command(capsys):
    assert main(["fiber", "x^3-2", "--samples", "5", "--height", "10"]) == 0
    out = capsys.readouterr().out
    assert "primitive_fraction" in out


def _run_cli(args, optimize):
    return run_python(["-m", "primpoints.cli", *args], optimize)


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "mw_text, expected",
    [
        ("order 35\ngen 1*oo+\nbase 1*oo+ + 1*oo-\n", 3),  # generator of degree 1
        ("order 0\ngen 0\nbase 1*oo+ + 1*oo-\n", 4),  # empty cyclic factor
        ("order 35\ngen 1*oo+ + -1*oo-\nbase 2*oo+ + -1*oo-\n", 3),  # base not effective
        ("order 35\ngen 1*oo+ + -1*oo-\nbase 1*(x; inert)\n", 3),  # base not at infinity
        ("order 35\ngen 1*oo+ + -1*oo-\nbase 2*oo\n", 4),  # oo is no place of X0(71)
        ("order 35\ngen 1*oo + -1*oo-\nbase 1*oo+ + 1*oo-\n", 4),  # nor in a generator
        ("order 35\ngen 1*oo+ + -1*oo-\nbase 1*oo+ + 1*oo- + 0*oo\n", 4),  # nor with multiplicity 0
        ("order 35\ngen 1*oo+ + -1*oo- + 0*oo\nbase 1*oo+ + 1*oo-\n", 4),
        ("order 35\ngen 1*(x; inert) + -2*oo+\nbase 1*oo+ + 1*oo-\n", 3),  # gen off infinity
        ("order 35\ngen 1*oo+ + -1*oo-\nbase 0\n", 3),  # base of degree 0
    ],
)
def test_bad_mw_file_exit_code(tmp_path, optimize, mw_text, expected):
    mw = tmp_path / "bad.mw"
    mw.write_text(mw_text)
    out = tmp_path / "out.txt"
    done = _run_cli(["points", fixture("x0_71.curve"), str(mw), "3", str(out)], optimize)
    assert done.returncode == expected, done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "divisor",
    [
        "2*(x; ram) + 1*oo",  # x is inert on y^2 = x^7 + 2
        "1*(x-1; split; 5) + 1*oo",  # x-1 is inert
        "1*(x+1; split; 5) + 1*oo",  # x+1 splits, but with y = +-1
    ],
)
def test_rr_rejects_places_not_on_the_curve(tmp_path, optimize, divisor):
    curve = tmp_path / "c.curve"
    curve.write_text("f: 2 0 0 0 0 0 0 1\n")
    done = _run_cli(["rr", str(curve), divisor], optimize)
    assert done.returncode == 4, done.stderr
    assert "Traceback" not in done.stderr
    assert "is not a place of the curve" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "coeffs, divisor, places",
    [
        ("1 0 0 0 0 1", "3*oo+", "oo"),  # an odd model has the single place oo
        ("1 0 0 0 0 0 1", "3*oo", "oo+, oo-"),  # an even model has oo+ and oo-
        ("1 0 0 0 0 0 1", "1*(x; split; 1) + 2*oo", "oo+, oo-"),
        ("1 0 0 0 0 0 1", "3*oo+ + 0*oo", "oo+, oo-"),  # a zero multiplicity names oo too
        ("1 0 0 0 0 1", "3*oo + 0*oo-", "oo"),
        # each place is checked as it is read, so before a later syntax error
        ("1 0 0 0 0 0 1", "3*oo+ + 0*oo + junk", "oo+, oo-"),
    ],
)
def test_rr_rejects_infinite_places_the_model_lacks(tmp_path, optimize, coeffs, divisor, places):
    curve = tmp_path / "c.curve"
    curve.write_text(f"f: {coeffs}\n")
    done = _run_cli(["rr", str(curve), divisor], optimize)
    assert done.returncode == 4, done.stderr
    assert "Traceback" not in done.stderr
    assert f"its places at infinity are {places}" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("optimize", [False, True])
def test_rr_accepts_a_zero_multiplicity_at_a_place_of_the_model(tmp_path, optimize):
    curve = tmp_path / "c.curve"
    curve.write_text("f: 1 0 0 0 0 0 1\n")
    done = _run_cli(["rr", str(curve), "3*oo+ + 0*oo-"], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ell=2\n")


@pytest.mark.parametrize("optimize", [False, True])
def test_a_bad_base_is_reported_before_a_degree_below_2(tmp_path, optimize):
    mw = tmp_path / "bad.mw"
    mw.write_text("order 35\ngen 1*oo+ + -1*oo-\nbase 0\n")
    done = _run_cli(["points", fixture("x0_71.curve"), str(mw), "1", str(tmp_path / "r")], optimize)
    assert done.returncode == 3, done.stderr
    assert done.stderr == "unsupported shape: base divisor must be effective of degree >= 1\n"


# a series of y at infinity that is all zero, or whose t^1 coefficient is
# raised by 1; the orders at infinity are read off the norm, so the recheck
# of every basis element does not share the corrupted series
CORRUPTED_SERIES_OF_Y = """
import sys
from primpoints import cli, hyperell

series = hyperell._y_series_scaled


def bumped(curve, nterms):
    L, N = series(curve, nterms)
    return L, (N[0], N[1] + L, *N[2:])


if sys.argv[3] == "zero":
    hyperell._y_series_scaled = lambda curve, nterms: (1, (0,) * nterms)
elif sys.argv[3] == "bumped":
    hyperell._y_series_scaled = bumped
print(cli.main(["rr", sys.argv[1], sys.argv[2]]))
"""


def _rr_on_a_corrupted_series(tmp_path, coeffs, divisor, mutant, optimize):
    curve = tmp_path / "c.curve"
    curve.write_text(f"f: {coeffs}\n")
    return run_python(["-c", CORRUPTED_SERIES_OF_Y, str(curve), divisor, mutant], optimize)


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "coeffs, divisor, mutant",
    [
        ("1 0 0 0 0 0 1", "4*oo+ + 0*oo-", "zero"),
        # y^2 = x^6 + 3x + 1: basis elements cancel at oo- and not at oo+
        ("1 3 0 0 0 0 1", "6*oo+ + 0*oo-", "bumped"),
    ],
)
def test_a_corrupted_series_of_y_exits_5(tmp_path, optimize, coeffs, divisor, mutant):
    done = _rr_on_a_corrupted_series(tmp_path, coeffs, divisor, mutant, optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5\n"
    assert "Traceback" not in done.stderr
    assert "basis element violates pole bounds" in done.stderr


@pytest.mark.parametrize("optimize", [False, True])
def test_a_zero_series_leaves_a_basis_with_no_pole_condition_unchanged(tmp_path, optimize):
    # with n+ = n- no pole condition is built, so the series is not read
    args = (tmp_path, "1 0 0 0 0 0 1", "4*oo+ + 4*oo-")
    done = _rr_on_a_corrupted_series(*args, "zero", optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ell=7\n") and done.stdout.endswith("\n0\n")
    assert done.stdout == _rr_on_a_corrupted_series(*args, "none", optimize).stdout


# a zero vector appended to every kernel: the zero function is no basis
# element, so `rr` must exit 5, also under python -O
ZERO_KERNEL_VECTOR = """
import sys
from primpoints import cli, hyperell

kernel_basis = hyperell.kernel_basis
hyperell.kernel_basis = lambda rows, ncols: [*kernel_basis(rows, ncols), [0] * ncols]
print(cli.main(["rr", sys.argv[1], "4*oo+ + 4*oo-"]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_a_zero_basis_element_exits_5(tmp_path, optimize):
    curve = tmp_path / "c.curve"
    curve.write_text("f: 1 0 0 0 0 0 1\n")
    done = run_python(["-c", ZERO_KERNEL_VECTOR, str(curve)], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5\n"
    assert "Traceback" not in done.stderr
    assert "u + v y vanished identically on the curve" in done.stderr


# every hit's y scaled by 2: the exact check r*y^2 = f(x) must make `twists`
# exit 5, also under python -O
CORRUPTED_TWIST_HIT = """
from primpoints import cli, pipeline

hit = pipeline.TwistHit
pipeline.TwistHit = lambda r, x, y: hit(r, x, 2 * y)
print(cli.main(["twists", "x^6+1", "--max-r", "3", "--height", "2"]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_a_corrupted_twist_hit_exits_5(optimize):
    done = run_python(["-c", CORRUPTED_TWIST_HIT], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5\n"
    assert "twist witness fails r*y^2 = f(x)" in done.stderr


# `field` on a polynomial with repeated factors, with every multiplicity
# read as 1 on the gcd route when the argument says "mutant": the exact
# re-multiplication of the factorization must make `field` exit 5, also
# under python -O
MULTIPLICITY_ONE = """
import sys
from primpoints import arith, cli

if sys.argv[2] == "mutant":
    arith._valuation_at = lambda p, a: (1, a // p)
print(cli.main(["field", sys.argv[1]]))
"""


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "literal, factors",
    [
        ("x^4-2x^2+1", ["x-1 multiplicity 2", "x+1 multiplicity 2"]),
        # (x - 1)(x - 1 - 23*29*31)(x - 5)^2: no fast prime, so the gcd
        # route reads even the multiplicities 1
        ("x^4-20689x^3+227493x^2-723755x+516950",
         ["x-20678 multiplicity 1", "x-5 multiplicity 2", "x-1 multiplicity 1"]),
    ],
)
def test_field_reads_multiplicities_off_the_squarefree_part(optimize, literal, factors):
    done = run_python(["-c", MULTIPLICITY_ONE, literal, "none"], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "4\n"
    assert [line for line in done.stderr.splitlines() if line.startswith("factor:")] == [
        f"factor: {factor}" for factor in factors]
    done = run_python(["-c", MULTIPLICITY_ONE, literal, "mutant"], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5\n"
    assert "Traceback" not in done.stderr
    assert "factorization failed exact re-multiplication" in done.stderr


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "divisor, factors",
    [
        ("1*(1; ram) + 3*oo", []),  # a constant defines no point
        ("2*(x^2-1; inert) + 3*oo", ["factor: x-1 multiplicity 1", "factor: x+1 multiplicity 1"]),
    ],
)
def test_rr_rejects_point_polynomials_that_are_not_irreducible(tmp_path, optimize, divisor, factors):
    curve = tmp_path / "c.curve"
    curve.write_text("f: 2 0 0 0 0 0 0 1\n")
    done = _run_cli(["rr", str(curve), divisor], optimize)
    assert done.returncode == 4, done.stderr
    assert "Traceback" not in done.stderr
    assert [line for line in done.stderr.splitlines() if line.startswith("factor:")] == factors
    assert done.stdout == ""


# a divisor literal that starts with a minus sign is the divisor, not an
# option, wherever --json stands; -- before it still works
@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("argv", [
    ["rr", "CURVE_ODD", "-1*oo"],
    ["rr", "CURVE_ODD", "--", "-1*oo"],
    ["rr", "--json", "CURVE_ODD", "-1*oo"],
    ["rr", "CURVE_ODD", "-1*oo", "--json"],
    ["rr", "--json", "CURVE_ODD", "--", "-1*oo"],
], ids=["plain", "after --", "--json before", "--json after", "--json before --"])
def test_rr_reads_a_literal_with_a_leading_minus_as_the_divisor(tmp_path, optimize, argv):
    done = _run_cli(_tmp_argv(tmp_path, argv), optimize)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if "--json" in argv:
        assert json.loads(done.stdout) == {
            "basis": [], "divisor": "-1*oo", "ell": 0, "schema": "primpoints.rr/1",
        }
    else:
        assert done.stdout == "ell=0\n"


# a polynomial literal that starts with a minus sign is the polynomial, not
# an option, on every subcommand that takes one, wherever --json stands;
# -- before it still works: (subcommand, literal, options)
LEADING_MINUS = [
    ("field", "-x^3+2", []),
    ("construct", "-x^3+2", []),
    ("fiber", "-x^3+2", ["--samples", "3"]),
    ("twists", "-x^6-1", ["--max-r", "10", "--height", "5"]),
]


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("command, literal, options", LEADING_MINUS, ids=[
    "field", "construct", "fiber", "twists",
])
def test_a_literal_with_a_leading_minus_is_the_polynomial(optimize, command, literal, options):
    plain = _run_cli([command, literal, *options], optimize)
    assert plain.returncode == 0, plain.stderr
    assert plain.stderr == ""
    after_dashes = _run_cli([command, *options, "--", literal], optimize)
    assert (after_dashes.returncode, after_dashes.stdout) == (0, plain.stdout)
    before = _run_cli([command, "--json", literal, *options], optimize)
    after = _run_cli([command, literal, *options, "--json"], optimize)
    for done in (before, after):
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["schema"] == f"primpoints.{command}/1"
    assert before.stdout == after.stdout


@pytest.mark.parametrize("negated, literal", [("-x^3+2", "x^3-2"), ("-x^4+2", "x^4-2")])
def test_field_of_a_negated_literal_is_the_field_of_the_literal(negated, literal):
    done, expected = _run_cli(["field", negated], False), _run_cli(["field", literal], False)
    assert done.returncode == expected.returncode == 0, done.stderr
    assert done.stdout == expected.stdout


@pytest.mark.parametrize("command", ["field", "construct", "fiber", "twists", "rr"])
def test_help_still_parses_as_an_option(command):
    done = _run_cli([command, "-h"], False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: primpoints {command} [-h]")


# input files, named by placeholders in an argv: CURVE is y^2 = x^6 + 1,
# the *_ZERO files hold a coefficient p/0, BAD is no UTF-8 text
INPUT_FILES = {
    "CURVE": b"f: 1 0 0 0 0 0 1\n",
    "CURVE_ZERO": b"f: x^6+1/0\n",
    "MW_ZERO": b"order 35\ngen 1*oo+ + -1*oo-\nbase 1*(x-1/0; ram)\n",
    "BAD": b"\xff\n",
    "MW_HUGE": b"order 1000000000000\ngen 1*oo+ + -1*oo-\nbase 1*oo+ + 1*oo-\n",
    "CURVE_ODD": b"f: 1 0 0 0 0 1\n",
    "CURVE_TWO_F": b"f: 1 0 0 0 0 1\nf: 1 0 0 0 0 0 1\n",
    "MW_TWO_BASES": b"order 35\ngen 1*oo+ + -1*oo-\nbase 1*oo+ + 1*oo-\nbase 2*oo+\n",
    "COVER_HUGE_RANGE": b"label,g,cover_kind,m,gprime,jq_finite,j_simple,d_range\n"
                        b"x,5,gonal,2,,true,false,2-100000000\n",
}
# per subcommand, a coefficient p/0 in a literal or in a file
ZERO_DENOMINATORS = [
    ["field", "x^2+1/0"],
    ["construct", "x^3-1/0"],
    ["fiber", "x^3+0/0"],
    ["twists", "1/0*x^6+1"],
    ["rr", "CURVE", "1*(x-1/0; ram)"],
    ["rr", "CURVE_ZERO", "1*oo+"],
    ["points", fixture("x0_71.curve"), "MW_ZERO", "3", "REPORT"],
]


def _tmp_argv(tmp_path, argv):
    """argv with each INPUT_FILES placeholder written to tmp_path, and it and
    REPORT replaced by their paths there."""
    out = []
    for arg in argv:
        if arg in INPUT_FILES:
            (tmp_path / arg).write_bytes(INPUT_FILES[arg])
        out.append(str(tmp_path / arg) if arg in INPUT_FILES or arg == "REPORT" else arg)
    return out


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("argv", ZERO_DENOMINATORS, ids=[
    "field", "construct", "fiber", "twists", "rr divisor", "rr curve", "points mw",
])
def test_a_zero_denominator_is_a_parse_error(tmp_path, optimize, argv):
    done = _run_cli(_tmp_argv(tmp_path, argv), optimize)
    assert done.returncode == 2, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("parse error: bad coefficient: Fraction(") and line.endswith(", 0)")
    assert not (tmp_path / "REPORT").exists()


# an exponent, degree, point, group order or multiplicity above the size
# bound, which would otherwise size an allocation or a loop (a MemoryError
# for each of these but the multiplicity, which ran for over 100 s)
@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("argv, message", [
    (["field", "x^99999999999999"], "exponent above the size bound 10000"),
    (["rr", "CURVE", "1*(x^99999999999999-1; ram)"], "exponent above the size bound 10000"),
    (["perm", "()", "--degree", "1000000000000"], "degree 1000000000000 is above the size bound"),
    (["perm", "(0 1000000000000)"], "point 1000000000000 is above the size bound"),
    (["points", fixture("x0_71.curve"), "MW_HUGE", "3", "REPORT"], "order above the size bound 10000"),
    (["rr", "CURVE_ODD", "1000000000000000000000*oo"], "multiplicity above the size bound 10000"),
    (["rr", "CURVE_ODD", "-10001*oo"], "multiplicity above the size bound 10000"),
    (["classify", "COVER_HUGE_RANGE", "REPORT"],
     "d_range above the size bound 10000 in cover CSV line 2"),
], ids=[
    "field", "rr divisor", "perm degree", "perm point", "points order", "rr multiplicity",
    "rr negative multiplicity", "classify degree range",
])
def test_a_size_above_the_bound_is_a_parse_error(tmp_path, optimize, argv, message):
    done = _run_cli(_tmp_argv(tmp_path, argv), optimize)
    assert done.returncode == 2, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("parse error: ") and message in line
    assert done.stdout == ""


# a size on the command line above the bound, which sized a loop that ran
# until killed, or whose absolute value is: argparse's usage error
@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("argv, option", [
    (["points", fixture("x0_71.curve"), fixture("x0_71.mw"), "20001", "REPORT"], "degree"),
    (["points", fixture("x0_71.curve"), fixture("x0_71.mw"), "-20001", "REPORT"], "degree"),
    (["twists", "x^6+1", "--max-r", "100000000", "--height", "2"], "--max-r"),
    (["twists", "x^6+1", "--max-r", "2", "--height", "100000"], "--height"),
    (["fiber", "x^3-2", "--samples", "10001"], "--samples"),
    (["fiber", "x^3-2", "--samples", "3", "--height", "9" * 5000], "--height"),
    (["construct", "x^3-2", "--seed", "1" + "0" * 3000], "--seed"),
], ids=[
    "points degree", "points negative degree", "twists max-r", "twists height",
    "fiber samples", "fiber height of 5000 digits", "construct seed of 3001 digits",
])
def test_a_size_argument_above_the_bound_is_a_usage_error(tmp_path, optimize, argv, option):
    done = _run_cli(_tmp_argv(tmp_path, argv), optimize)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"usage: primpoints {argv[0]} ")
    error = done.stderr.splitlines()[-1]
    assert error.startswith(f"primpoints {argv[0]}: error: argument {option}: ")
    assert "absolute value at most 10000" in error
    assert done.stdout == ""
    assert not (tmp_path / "REPORT").exists()


def test_a_size_argument_within_the_bound_runs_as_before(tmp_path, capsys):
    assert main(["twists", "x^6+1", "--max-r", "10000", "--height", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_r"] == 10000 and [h["r"] for h in doc["hits"]] == [1, 2]
    out = tmp_path / "r.txt"
    argv = ["points", fixture("x0_71.curve"), fixture("x0_71.mw"), "-10000", str(out)]
    assert main(argv) == 3
    assert main(["twists", "x^6+1", "--max-r", "0"]) == 4
    err = capsys.readouterr().err
    assert err == (
        "unsupported shape: degree must be at least 2\n"
        "domain error: twist bound and height bound must be at least 1\n"
    )
    assert not out.exists()


# a directive that a file may hold once, given twice, is refused at the
# second line instead of read as the last one
@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("argv, message", [
    (["rr", "CURVE_TWO_F", "1*oo"], "curve file line 2: a second 'f:' line"),
    (["points", fixture("x0_71.curve"), "MW_TWO_BASES", "3", "REPORT"],
     "mw file line 4: a second 'base' line"),
], ids=["rr curve f", "points mw base"])
def test_a_repeated_directive_is_a_parse_error(tmp_path, optimize, argv, message):
    done = _run_cli(_tmp_argv(tmp_path, argv), optimize)
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"parse error: {message}\n"
    assert done.stdout == ""
    assert not (tmp_path / "REPORT").exists()


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("argv", [
    ["classify", "BAD", "REPORT"],
    ["points", "BAD", fixture("x0_71.mw"), "3", "REPORT"],
    ["points", fixture("x0_71.curve"), "BAD", "3", "REPORT"],
    ["rr", "BAD", "1*oo+"],
], ids=["classify csv", "points curve", "points mw", "rr curve"])
def test_an_undecodable_file_is_a_parse_error(tmp_path, optimize, argv):
    done = _run_cli(_tmp_argv(tmp_path, argv), optimize)
    assert done.returncode == 2, done.stderr
    bad = tmp_path / "BAD"
    assert done.stderr == f"parse error: {bad} is not UTF-8 text (invalid start byte at byte 0)\n"
    assert not (tmp_path / "REPORT").exists()


@pytest.mark.parametrize("optimize", [False, True])
def test_twists_rejects_small_degree(optimize):
    done = _run_cli(["twists", "x^5+1"], optimize)
    assert done.returncode == 4, done.stderr
    assert "Traceback" not in done.stderr
    assert "hits=" not in done.stdout


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "bounds",
    [["--samples", "0"], ["--height", "0"], ["--samples", "-3"], ["--height", "-1"],
     # height 1 holds the one value beta = 1, height 2 also 1/2: no report on fewer
     ["--samples", "3", "--height", "1"], ["--samples", "3", "--height", "2"]],
)
def test_fiber_rejects_empty_samples(optimize, bounds):
    done = _run_cli(["fiber", "x^3-2", *bounds], optimize)
    assert done.returncode == 4, done.stderr
    assert "Traceback" not in done.stderr
    assert "primitive_fraction" not in done.stdout


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["()", "--degree", "0"], 2),
        (["()", "--degree", "-2"], 2),
        (["(0 1)(1 2)"], 2),  # point 1 in two cycles
        (["()()"], 2),  # no point and no degree
        (["(-1 2)"], 2),
        (["(0 1)", "--degree", "4"], 4),  # not transitive
        (["(0 1)", "--degree", "4", "--json"], 4),
    ],
)
def test_perm_rejects_bad_input(optimize, argv, expected):
    done = _run_cli(["perm", *argv], optimize)
    assert done.returncode == expected, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    if expected == 4:
        assert done.stderr == (
            "domain error: the group is not transitive; block systems need a transitive action\n"
        )


# `parse_cycles` checks the degree, as it checks the points
@pytest.mark.parametrize("degree", ["0", "-2"])
def test_perm_degree_below_one_is_a_parse_error(degree):
    done = _run_cli(["perm", "()", "--degree", degree], False)
    assert done.returncode == 2
    assert done.stderr == f"parse error: degree must be at least 1, got {degree}\n"


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "gens, order",
    [
        (["(0 1 2 3 4 5 6 7 8 9)", "(0 1)"], 3628800),  # S_10
        (["(0 1 2)", "(1 2 3 4 5 6 7 8 9)"], 1814400),  # A_10
        (["(0 1 2 3 4 5 6 7 8 9 10 11)", "(0 1)"], 479001600),  # S_12
    ],
)
def test_perm_orders_large_primitive_groups(optimize, gens, order):
    done = _run_cli(["perm", *gens], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"order={order}\nprimitive\n"


@pytest.mark.slow
def test_points_command_degree4_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    code = main(["points", fixture("x0_71.curve"), fixture("x0_71.mw"), "4", str(out1)])
    assert code == 0
    assert "primitive_orbits=0" in capsys.readouterr().out
    code = main(["points", fixture("x0_71.curve"), fixture("x0_71.mw"), "4", str(out2)])
    assert code == 0
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()
    text = out1.read_text()
    assert "group_order: 35" in text
    assert "primitive_orbits=0" in text
    assert text.count("class a=") == 35


REFERENCE = os.path.join(FIXTURES, "..", "perfbench", "reference", "x0_71-points.txt")


@pytest.mark.slow
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_points_reports_are_the_same_at_every_width(d, tmp_path, capsys):
    # text as in the committed benchmark reference, --json with the same
    # stdout, classes and summary
    reference = open(REFERENCE, encoding="utf-8").read()
    out = tmp_path / "r.txt"
    argv = ["points", fixture("x0_71.curve"), fixture("x0_71.mw"), str(d), str(out)]
    code = main(argv)
    stdout, text = capsys.readouterr().out, out.read_text()
    assert f"## d={d}\nexit={code}\n{stdout}{text}\n" in reference
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == stdout
    doc = json.loads(out.read_text())
    [summary] = [line for line in text.splitlines() if line.startswith("summary: ")]
    assert dict(kv.split("=") for kv in summary.split()[1:]) == {
        key: str(n) for key, n in doc["summary"].items()
    }
    assert len(doc["classes"]) == text.count("class a=") == doc["group_order"]


@pytest.mark.slow
def test_points_command_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        ["points", fixture("x0_71.curve"), fixture("x0_71.mw"), "4", str(out), "--json"]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["schema"] == "primpoints.points/1"
    assert doc["group_order"] == 35
    assert doc["primitive_orbits"] == 0


# one small run per subcommand; REPORT stands for the report file argument
JSON_RUNS = [
    ("classify", [fixture("table1.csv"), "REPORT"]),
    ("points", [fixture("x0_71.curve"), fixture("x0_71.mw"), "3", "REPORT"]),
    ("field", ["x^4-2"]),
    ("rr", [fixture("x0_71.curve"), "2*oo+ + 2*oo-"]),
    ("construct", ["x^3-2"]),
    ("fiber", ["x^3-2", "--samples", "3", "--height", "10"]),
    ("twists", ["x^6+1", "--max-r", "3", "--height", "2"]),
    ("perm", ["(0 1 2 3)", "(0 2)"]),
]


def test_the_json_runs_cover_every_subcommand():
    usage = build_parser().format_usage()
    listed = usage[usage.index("{") + 1 : usage.index("}")].split(",")
    assert sorted(listed) == sorted(command for command, _ in JSON_RUNS)


@pytest.mark.parametrize("command, argv", JSON_RUNS, ids=[c for c, _ in JSON_RUNS])
def test_every_subcommand_writes_a_json_document_with_its_schema(command, argv, tmp_path, capsys):
    report = tmp_path / "report"
    argv = [str(report) if arg == "REPORT" else arg for arg in argv]
    assert main([command, *argv, "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(report.read_text() if report.exists() else out)
    assert doc["schema"] == f"primpoints.{command}/1"


def test_reproduce_script_prints_the_points_report(tmp_path, capsys):
    out = tmp_path / "r.txt"
    assert main(["points", fixture("x0_71.curve"), fixture("x0_71.mw"), "3", str(out)]) == 0
    done = run_python([os.path.join(SCRIPTS, "reproduce_x0_71.py"), "--degrees", "3"], False)
    assert done.returncode == 0, done.stderr
    report, sep, _ = done.stdout.partition("\n# degree 3 took ")
    assert sep and report == out.read_text()


def _reproduce_script_on(tmp_path, mw_text):
    """A copy of reproduce_x0_71.py whose fixtures hold X0(71) and mw_text."""
    (tmp_path / "scripts").mkdir()
    (tmp_path / "fixtures").mkdir()
    script = tmp_path / "scripts" / "reproduce_x0_71.py"
    script.write_text(open(os.path.join(SCRIPTS, "reproduce_x0_71.py")).read())
    (tmp_path / "fixtures" / "x0_71.curve").write_text(open(fixture("x0_71.curve")).read())
    (tmp_path / "fixtures" / "x0_71.mw").write_text(mw_text)
    return str(script)


def test_reproduce_script_rejects_a_place_the_model_lacks(tmp_path):
    """The script reads the MW file against its curve, as `points` does."""
    script = _reproduce_script_on(
        tmp_path, "order 35\ngen 1*oo+ + -1*oo-\nbase 1*oo+ + 1*oo- + 0*oo\n"
    )
    done = run_python([script, "--degrees", "3"], False)
    assert done.returncode != 0
    assert "is not a place of the curve" in done.stderr
    assert "primitive_orbits" not in done.stdout


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("script", ["reproduce_x0_71.py", "twist_growth.py"])
def test_scripts_exit_as_the_cli_does_on_bad_input(tmp_path, optimize, script):
    if script == "twist_growth.py":
        argv = [os.path.join(SCRIPTS, script), "--poly", "x^5+1"]
        cli = ["twists", "x^5+1"]
    else:
        mw_text = "order 35\ngen 1*oo+ + -1*oo- + 0*oo\nbase 1*oo+ + 1*oo-\n"
        argv = [_reproduce_script_on(tmp_path, mw_text), "--degrees", "3"]
        cli = ["points", str(tmp_path / "fixtures" / "x0_71.curve"),
               str(tmp_path / "fixtures" / "x0_71.mw"), "3", str(tmp_path / "r")]
    done, expected = run_python(argv, optimize), _run_cli(cli, optimize)
    assert done.returncode == expected.returncode == 4
    assert len(done.stderr.splitlines()) == 1 and done.stderr == expected.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "script, option, value",
    [
        ("reproduce_x0_71.py", "--degrees", "a"),
        ("twist_growth.py", "--heights", "5,x"),
        ("twist_growth.py", "--heights", "50,1"),  # not increasing
        # sizes above the bound, which sized loops that ran until killed
        ("reproduce_x0_71.py", "--degrees", "20001"),
        ("twist_growth.py", "--heights", "5,100000"),
        ("twist_growth.py", "--max-r", "100000000"),
    ],
)
def test_scripts_reject_bad_arguments_with_a_usage_error(optimize, script, option, value):
    done = run_python([os.path.join(SCRIPTS, script), option, value], optimize)
    assert done.returncode == 2
    usage, error = done.stderr.splitlines()
    assert usage.startswith(f"usage: {script} ")
    assert error.startswith(f"{script}: error: argument {option}: ")
    assert done.stdout == ""


def test_ab_script_exits_1_when_the_two_checkouts_differ(tmp_path):
    # this checkout against itself, then against a copy whose irreducible
    # fibers all read imprimitive: only fiber-sample's outputs change
    repo = os.path.join(SCRIPTS, "..")
    copy = tmp_path / "src" / "primpoints"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    text = (copy / "pipeline.py").read_text()
    verdict = "return IRRED_PRIMITIVE if is_primitive_field(K) else IRRED_IMPRIMITIVE"
    assert verdict in text
    (copy / "pipeline.py").write_text(text.replace(verdict, "return IRRED_IMPRIMITIVE"))
    script = os.path.join(SCRIPTS, "ab_inprocess.py")
    same = run_python([script, repo, repo, "--rounds", "1"], False)
    assert same.returncode == 0, same.stderr
    assert [line.split(":")[0] for line in same.stdout.splitlines()] == [
        "fiber-sample", "fiber-divisors", "x0_71-points", "rr-sweep", "field-corpus"]
    differ = run_python([script, repo, str(tmp_path), "--rounds", "1"], False)
    assert differ.returncode == 1, differ.stderr
    assert [line for line in differ.stdout.splitlines() if "differ" in line] == [
        "fiber-sample: outputs differ in round 0"]


def test_ab_script_exits_0_when_the_two_checkouts_differ_only_in_a_repr(tmp_path):
    # a copy whose UniPoly prints another repr: the divisors are compared by
    # their literals, not by the dataclass repr that contains UniPoly's
    repo = os.path.join(SCRIPTS, "..")
    copy = tmp_path / "src" / "primpoints"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    text = (copy / "arith.py").read_text()
    anchor = "    def __str__(self):\n        return self.literal()\n"
    assert text.count(anchor) == 1
    (copy / "arith.py").write_text(text.replace(
        anchor, anchor + "\n    def __repr__(self):\n        return f\"UniPoly<{self.literal()}>\"\n"))
    script = os.path.join(SCRIPTS, "ab_inprocess.py")
    done = run_python([script, repo, str(tmp_path), "--rounds", "1"], False)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "differ" not in done.stdout


# twist_growth.py under a census that loses a hit at the larger height bound
LOSSY_TWIST_GROWTH = (
    "import dataclasses, runpy, sys\n"
    "from primpoints import pipeline\n"
    "census = pipeline.twist_census\n"
    "def lossy(f, M, h):\n"
    "    result = census(f, M, h)\n"
    "    return dataclasses.replace(result, hits=result.hits[:-1]) if h > 2 else result\n"
    "pipeline.twist_census = lossy\n"
    "sys.argv = [sys.argv[1], '--max-r', '30', '--heights', '2,5']\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')\n"
)


@pytest.mark.parametrize("optimize", [False, True])
def test_twist_growth_rechecks_the_hit_count(optimize):
    script = os.path.join(SCRIPTS, "twist_growth.py")
    done = run_python(["-c", LOSSY_TWIST_GROWTH, script], optimize)
    assert done.returncode == 5
    assert done.stderr == (
        "internal verification failed: twist hit count fell from 2 to 1 at height 5\n"
    )
    assert done.stdout.startswith("height<=   2:   2 twists with points [1, 2] ")
    assert "height<=   5" not in done.stdout


def _verification_messages():
    """(module, message) for every VerificationFailed(...) in src/, read
    with `ast`: the string, or the constant prefix of an f-string."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "VerificationFailed":
                continue
            (arg,) = node.args
            if isinstance(arg, ast.JoinedStr):
                prefix = []
                for part in arg.values:
                    if not isinstance(part, ast.Constant):
                        break
                    prefix.append(part.value)
                out.append((name, "".join(prefix)))
            else:
                assert isinstance(arg, ast.Constant), (name, ast.dump(arg))
                out.append((name, arg.value))
    return out


def test_every_verification_message_is_quoted_under_exit_5():
    with open(FORMATS_DOC, encoding="utf-8") as fh:
        doc = fh.read()
    section = doc[doc.index("Exit code 5 means"):]
    section = section.split("\n## ")[0]
    messages = _verification_messages()
    assert len(messages) >= 20 and all(message for _, message in messages)
    assert [(name, message) for name, message in messages if message not in section] == []
