import json
import os

import pytest

from conftest import run_python
from primpoints import hyperell, numfield
from primpoints.cli import build_parser, main
from primpoints.errors import VerificationFailed

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


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


@pytest.mark.parametrize("width", ["0", "-3"])
def test_points_rejects_jobs_below_one(tmp_path, capsys, width):
    out = tmp_path / "r.txt"
    with pytest.raises(SystemExit) as exc:
        main(["points", fixture("x0_71.curve"), fixture("x0_71.mw"), "3", str(out),
              "--jobs", width])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


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


# a zero series of y at infinity: the order of a basis element at oo+ finds
# no nonzero coefficient, which must make `rr` exit 5, also under python -O
ZERO_SERIES_AT_INFINITY = """
import sys
from primpoints import cli, hyperell

hyperell._y_series_scaled = lambda curve, nterms: (1, (0,) * nterms)
print(cli.main(["rr", sys.argv[1], "4*oo+ + 4*oo-"]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_an_exhausted_valuation_window_exits_5(tmp_path, optimize):
    curve = tmp_path / "c.curve"
    curve.write_text("f: 1 0 0 0 0 0 1\n")
    done = run_python(["-c", ZERO_SERIES_AT_INFINITY, str(curve)], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5\n"
    assert "Traceback" not in done.stderr
    assert "valuation window exhausted" in done.stderr


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


# input files, named by placeholders in an argv: CURVE is y^2 = x^6 + 1,
# the *_ZERO files hold a coefficient p/0, BAD is no UTF-8 text
INPUT_FILES = {
    "CURVE": b"f: 1 0 0 0 0 0 1\n",
    "CURVE_ZERO": b"f: x^6+1/0\n",
    "MW_ZERO": b"order 35\ngen 1*oo+ + -1*oo-\nbase 1*(x-1/0; ram)\n",
    "BAD": b"\xff\n",
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
    ],
)
def test_perm_rejects_bad_input(optimize, argv, expected):
    done = _run_cli(["perm", *argv], optimize)
    assert done.returncode == expected, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


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
    code = main(
        ["points", fixture("x0_71.curve"), fixture("x0_71.mw"), "4", str(out2),
         "--jobs", "2"]
    )
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
    # text as in the committed benchmark reference, --json equal across widths
    reference = open(REFERENCE, encoding="utf-8").read()
    docs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"r{jobs}.txt"
        argv = ["points", fixture("x0_71.curve"), fixture("x0_71.mw"), str(d), str(out)]
        code = main(argv + ["--jobs", jobs])
        assert f"## d={d}\nexit={code}\n{capsys.readouterr().out}{out.read_text()}\n" in reference
        assert main(argv + ["--jobs", jobs, "--json"]) == 0
        docs.append((capsys.readouterr().out, out.read_text()))
    assert docs[0] == docs[1]


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
