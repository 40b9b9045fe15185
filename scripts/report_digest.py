#!/usr/bin/env python3
"""One sha256 per report of a fixed set of CLI runs, for byte-identity checks.

Each run is a fresh `primpoints` interpreter on the checkout's own `src/`
and `fixtures/`.  A digest covers the exit code, stdout, stderr and, for
`points` and `classify`, the report file (its path in the output is
masked, as is the scratch directory that holds the input files), so two
checkouts that print the same lines produce identical reports.  The set:

* `points` on X0(71), d = 3..6, text and --json, --jobs 1 and --jobs 2;
  and at d = 3 with Mordell-Weil files that each break one rule (an order
  0, a generator of degree 1 or off infinity, a base that is not effective,
  is 0 or is off infinity, `oo` in the base, `0*oo` in a generator), with
  one whose generator names `oo` and whose base is malformed, and at d = 1
  with a base of degree 0;
* `field` on the fields of fixtures/primitivity_corpus.txt, on the
  three imprimitive sextics of X0(71) at d = 6, on the composed fields
  g(h(x)) of degrees 2*4, 4*2, 3*3, 2*5, 5*2, 3*4 and 2*6 (built with the
  checkout's own `UniPoly.compose`), on the degree-1 x-5, and on the
  reducible x^4-1 (exit 4, with one `factor:` line per factor);
* `fiber --samples 40` on x^3-2, x^5-x-1 and x^7-x-1;
* `rr` on divisors with affine parts, split, ramified and inert, on even
  and odd models, with one-sided and negative bounds at infinity; on
  degree-2 split points whose two multiplicities differ by 2 or 3, either
  way round; on ramified multiplicities 4 and 5; on places at infinity
  that the model does not have, also with multiplicity 0 and also before
  a term that does not parse; and on
  y^2 = 4/9*x^6 + 7/5*x + 1, whose coefficients are not all integers;
* `perm`, text and --json, on the generators of every group of the
  checkout's transitive corpus (read through its own `transitive_corpus`
  and `cycles_literal`), on S_10, A_10 and S_12, on an intransitive group
  and on bad cycles and degrees;
* `classify` on fixtures/table1.csv, text and --json;
* `construct` on x^3-2 and x^5-x-1;
* `twists x^6+1 --max-r 30 --height 20`, and `twists --max-r 100
  --height 50` on x^7-x-1 and 2x^6-3x+5/7;
* `--help`, at the top level and of each subcommand, which pins every
  usage line;
* `classify` on cover tables whose one row each breaks one rule: m = 1,
  kinds `weird`, `Gonal` and empty, gprime missing or 0 on a relative
  cover, g = 0, ranges `1-4`, `4-3` and `2`, m `two`, the boolean `maybe`,
  and a short row;
* a zero denominator in a polynomial literal for `field`, `construct`,
  `fiber` and `twists`, in a divisor literal and in the curve file for
  `rr`, and in the base of a Mordell-Weil file for `points`;
* a file holding the byte 0xff as the curve file of `rr` and `points`,
  the Mordell-Weil file of `points` and the cover table of `classify`.

Every run sees COLUMNS=80, so argparse wraps its help and usage lines the
same way whatever terminal the script is started from.

Usage: python3 scripts/report_digest.py [CHECKOUT] > digests.txt
CHECKOUT defaults to the checkout holding this script.  Run it on two
checkouts and diff the outputs.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

X0_71_SEXTICS = (
    "x^6+2x^5+x^4-x^3-x^2-x+1",
    "x^6+5x^5+7x^4-2x^3-9x^2-2x+4",
    "x^6+5/2*x^5+5/2*x^4-1/2*x^3-3/2*x^2-1/2*x+1/2",
)
# (g, h) of the composed fields g(h(x)), degrees 2*4, 4*2, 3*3, 2*5, 5*2, 3*4, 2*6
COMPOSED = (
    ("x^2+x+3", "x^4+x^3-x+1"),
    ("x^4+x^3-x+1", "x^2+x+2"),
    ("x^3-x-1", "x^3+x+1"),
    ("x^2+x+3", "x^5-x-1"),
    ("x^5-x-1", "x^2+x+2"),
    ("x^3-x-1", "x^4+x^3-x+1"),
    ("x^2+x+3", "x^6+x+1"),
)
FIBER_POLYS = ("x^3-2", "x^5-x-1", "x^7-x-1")
CONSTRUCT_POLYS = ("x^3-2", "x^5-x-1")
TWIST_POLYS = ("x^7-x-1", "2x^6-3x+5/7")
COMMANDS = ("classify", "points", "field", "rr", "construct", "fiber", "twists", "perm")
# primitive groups of order above 10^6
LARGE_GROUPS = (
    ("S10", ("(0 1 2 3 4 5 6 7 8 9)", "(0 1)")),
    ("A10", ("(0 1 2)", "(1 2 3 4 5 6 7 8 9)")),
    ("S12", ("(0 1 2 3 4 5 6 7 8 9 10 11)", "(0 1)")),
)
# an intransitive group, then cycles or degrees that are no permutation
PERM_INPUTS = (
    ("(0 1)", "(2 3)"),
    ("()", "--degree", "0"),
    ("()", "--degree", "-2"),
    ("(0 1)(1 2)",),
    ("()()",),
    ("(-1 2)",),
)
# curve coefficients (lowest degree first) and divisors with affine parts
RR_CASES = (
    ("1 0 0 0 0 0 1", "2*(x; split; 1) + 1*(x; split; -1) + 1*oo+ + 0*oo-"),
    ("1 0 0 0 0 0 1", "3*(x^2+1; ram) + 2*oo+ + -1*oo-"),
    ("1 0 0 0 0 0 1", "1*(x-1; inert) + 1*(x; split; 1) + 3*oo+ + 1*oo-"),
    ("1 0 0 0 0 1", "2*(x; split; 1) + 2*(x+1; ram) + 3*oo"),
    ("1 0 0 0 0 1", "1*(x-1; inert) + 1*(x; split; -1) + 4*oo"),
    ("-4 0 0 0 0 0 1", "1*(x^3-2; ram)"),
    ("-11 4 40 30 -70 -122 1 148 111 -26 -77 -38 -2 4 1", "1*(x; inert) + 4*oo+ + 2*oo-"),
    # x^2-2 splits on y^2 = x^6 + 1 with y = +-3, x^2-2x+2 on y^2 = x^5 + 1
    # with y = +-(2x-3): the condition sits on the side of the smaller
    # multiplicity, lifted past p
    ("1 0 0 0 0 0 1", "3*(x^2-2; split; -3) + 1*(x^2-2; split; 3) + 2*oo+ + 1*oo-"),
    ("1 0 0 0 0 0 1", "1*(x^2-2; split; -3) + 3*(x^2-2; split; 3) + 2*oo+ + 1*oo-"),
    ("1 0 0 0 0 0 1", "4*(x^2-2; split; -3) + 1*(x^2-2; split; 3) + 1*oo+ + 1*oo-"),
    ("1 0 0 0 0 0 1", "3*(x^2-2; split; 3) + 1*oo+ + -1*oo-"),
    ("1 0 0 0 0 1", "4*(x^2-2x+2; split; 2x-3) + 1*(x^2-2x+2; split; -2x+3) + 2*oo"),
    ("1 0 0 0 0 1", "2*(x^2-2x+2; split; 2x-3) + 4*(x^2-2x+2; split; -2x+3) + 1*oo"),
    ("1 0 0 0 0 0 1", "4*(x^2+1; ram) + 1*oo+"),
    ("1 0 0 0 0 0 1", "5*(x^2+1; ram) + 2*oo+ + -1*oo-"),
    # places at infinity the model does not have
    ("1 0 0 0 0 1", "3*oo+"),
    ("1 0 0 0 0 0 1", "3*oo"),
    # ... also with multiplicity 0
    ("1 0 0 0 0 0 1", "3*oo+ + 0*oo"),
    ("1 0 0 0 0 1", "3*oo + 0*oo-"),
    # ... also before a term that does not parse
    ("1 0 0 0 0 0 1", "3*oo+ + 0*oo + junk"),
    # y^2 = 4/9*x^6 + 7/5*x + 1: the series of y at infinity has k = 45 and a = 30
    ("1 7/5 0 0 0 0 4/9", "1*(x; split; 1) + 3*oo+ + 2*oo-"),
    ("1 7/5 0 0 0 0 4/9", "5*oo+ + -1*oo-"),
)

# (what is wrong, Mordell-Weil file, degree) for `points` on X0(71): one
# broken rule each, then two faults in one input
BAD_MW = (
    ("order 0", "order 0\ngen 1*oo+ + -1*oo-\nbase 1*oo+ + 1*oo-\n", 3),
    ("gen of degree 1", "order 35\ngen 1*oo+\nbase 1*oo+ + 1*oo-\n", 3),
    ("gen off infinity", "order 35\ngen 1*(x; inert) + -2*oo+\nbase 1*oo+ + 1*oo-\n", 3),
    ("base not effective", "order 35\ngen 1*oo+ + -1*oo-\nbase 2*oo+ + -1*oo-\n", 3),
    ("base 0", "order 35\ngen 1*oo+ + -1*oo-\nbase 0\n", 3),
    ("base off infinity", "order 35\ngen 1*oo+ + -1*oo-\nbase 1*(x; inert)\n", 3),
    ("oo in base", "order 35\ngen 1*oo+ + -1*oo-\nbase 2*oo\n", 3),
    ("0*oo in gen", "order 35\ngen 1*oo+ + -1*oo- + 0*oo\nbase 1*oo+ + 1*oo-\n", 3),
    ("oo in gen, malformed base", "order 35\ngen 1*oo + -1*oo-\nbase 1*oo+ + x\n", 3),
    ("base 0", "order 35\ngen 1*oo+ + -1*oo-\nbase 0\n", 1),
)

COVER_HEADER = "label,g,cover_kind,m,gprime,jq_finite,j_simple,d_range\n"
# (what is wrong, row) for `classify`: one broken rule per cover table
BAD_COVER_ROWS = (
    ("m = 1", "x,5,gonal,1,,true,false,2-4"),
    ("kind weird", "x,5,weird,2,1,true,false,2-4"),
    ("kind Gonal", "x,5,Gonal,2,,true,false,2-4"),
    ("kind empty", "x,5,,2,,true,false,2-4"),
    ("gprime missing", "x,41,relative,3,,true,false,2-5"),
    ("gprime 0", "x,41,relative,3,0,true,false,2-5"),
    ("g = 0", "x,0,gonal,2,,true,false,2-4"),
    ("range 1-4", "x,5,gonal,2,,true,false,1-4"),
    ("range 4-3", "x,5,gonal,2,,true,false,4-3"),
    ("range 2", "x,5,gonal,2,,true,false,2"),
    ("m two", "x,5,gonal,two,,true,false,2-4"),
    ("boolean maybe", "x,5,gonal,2,,maybe,false,2-4"),
    ("short row", "x,5,gonal,2,,true,false"),
)
ZERO_DENOMINATOR_LITERALS = (
    ("field", "x^2+1/0"),
    ("construct", "x^3-1/0"),
    ("fiber", "x^3+0/0"),
    ("twists", "1/0*x^6+1"),
)


def python(root, code, *argv):
    """Run code in a fresh interpreter on the checkout's own `src/`."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"), COLUMNS="80"),
        cwd=root,
    )


def run(root, argv, report, scratch):
    """sha256 over the exit code, stdout, stderr and the report file."""
    code = "import sys; from primpoints.cli import main; sys.exit(main(sys.argv[1:]))"
    if report is not None and os.path.exists(report):
        os.remove(report)
    done = python(root, code, *argv)
    out, err = done.stdout, done.stderr
    for path, mask in ((report, b"<report>"), (scratch, b"<scratch>")):
        if path is not None:
            out, err = (part.replace(path.encode(), mask) for part in (out, err))
    digest = hashlib.sha256()
    for part in (str(done.returncode).encode(), out, err):
        digest.update(len(part).to_bytes(8, "big") + part)
    if report is not None and os.path.exists(report):
        with open(report, "rb") as fh:
            digest.update(fh.read())
    return done.returncode, digest.hexdigest()


def corpus_fields(root):
    with open(os.path.join(root, "fixtures", "primitivity_corpus.txt")) as fh:
        return [line.split(",")[0] for line in fh if line.strip() and not line.startswith("#")]


def composed_fields(root):
    """The literals of g(h(x)) for the pairs of COMPOSED."""
    code = (
        "import sys\n"
        "from primpoints.formats import parse_poly\n"
        "for g, h in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    print(parse_poly(g).compose(parse_poly(h)).literal())"
    )
    done = python(root, code, *(lit for pair in COMPOSED for lit in pair))
    done.check_returncode()
    return done.stdout.decode().split()


def corpus_groups(root):
    """(name, degree, generators in cycle notation) of the checkout's corpus."""
    code = (
        "from primpoints.permact import cycles_literal, transitive_corpus\n"
        "for name, G, _ in transitive_corpus(7):\n"
        "    print(name, G.degree, *map(cycles_literal, G.generators), sep='\\t')"
    )
    done = python(root, code)
    done.check_returncode()
    for line in done.stdout.decode().splitlines():
        name, degree, *gens = line.split("\t")
        yield name, degree, gens


def scratch_file(scratch, name, content):
    """The path of a new file in the scratch directory holding `content`."""
    path = os.path.join(scratch, name)
    with open(path, "wb" if isinstance(content, bytes) else "w") as fh:
        fh.write(content)
    return path


def runs(root, scratch):
    curve = os.path.join(root, "fixtures", "x0_71.curve")
    mw = os.path.join(root, "fixtures", "x0_71.mw")
    report = os.path.join(scratch, "report")
    for d in (3, 4, 5, 6):
        for fmt in ((), ("--json",)):
            for width in ("1", "2"):
                argv = ["points", curve, mw, str(d), report, *fmt, "--jobs", width]
                yield f"points d={d} {' '.join(fmt) or 'text'} jobs={width}", argv, report
    for k, (fault, text, d) in enumerate(BAD_MW):
        path = scratch_file(scratch, f"bad{k}.mw", text)
        yield f"points bad mw ({fault}) d={d}", ["points", curve, path, str(d), report], report
    for lit in (*corpus_fields(root), *X0_71_SEXTICS, *composed_fields(root), "x-5", "x^4-1"):
        yield f"field {lit}", ["field", lit], None
    for lit in FIBER_POLYS:
        yield f"fiber {lit}", ["fiber", lit, "--samples", "40"], None
    for k, (coeffs, divisor) in enumerate(RR_CASES):
        path = scratch_file(scratch, f"rr{k}.curve", f"f: {coeffs}\n")
        yield f"rr [{coeffs}] {divisor}", ["rr", path, divisor], None
    for name, degree, gens in corpus_groups(root):
        for fmt in ((), ("--json",)):
            argv = ["perm", *gens, "--degree", degree, *fmt]
            yield f"perm {name} {' '.join(fmt) or 'text'}", argv, None
    for name, gens in LARGE_GROUPS:
        for fmt in ((), ("--json",)):
            yield f"perm {name} {' '.join(fmt) or 'text'}", ["perm", *gens, *fmt], None
    for args in PERM_INPUTS:
        yield f"perm {' '.join(args)}", ["perm", *args], None
    for fmt in ((), ("--json",)):
        argv = ["classify", os.path.join(root, "fixtures", "table1.csv"), report, *fmt]
        yield f"classify table1 {' '.join(fmt) or 'text'}", argv, report
    for lit in CONSTRUCT_POLYS:
        yield f"construct {lit}", ["construct", lit], None
    yield "twists x^6+1", ["twists", "x^6+1", "--max-r", "30", "--height", "20"], None
    for lit in TWIST_POLYS:
        yield f"twists {lit}", ["twists", lit, "--max-r", "100", "--height", "50"], None
    yield "--help", ["--help"], None
    for command in COMMANDS:
        yield f"{command} --help", [command, "--help"], None
    for k, (fault, row) in enumerate(BAD_COVER_ROWS):
        path = scratch_file(scratch, f"bad{k}.csv", COVER_HEADER + row + "\n")
        yield f"classify bad row ({fault})", ["classify", path, report], report
    for command, lit in ZERO_DENOMINATOR_LITERALS:
        yield f"{command} {lit}", [command, lit], None
    sextic = scratch_file(scratch, "sextic.curve", "f: 1 0 0 0 0 0 1\n")
    yield "rr zero denominator in a divisor", ["rr", sextic, "1*(x-1/0; ram)"], None
    zero_curve = scratch_file(scratch, "zero.curve", "f: x^6+1/0\n")
    yield "rr zero denominator in a curve file", ["rr", zero_curve, "1*oo+"], None
    zero_mw = scratch_file(
        scratch, "zero.mw", "order 35\ngen 1*oo+ + -1*oo-\nbase 1*(x-1/0; ram)\n"
    )
    yield "points zero denominator in an mw file", ["points", curve, zero_mw, "3", report], report
    undecodable = scratch_file(scratch, "undecodable", b"\xff\n")
    for label, argv in (
        ("rr curve", ["rr", undecodable, "1*oo+"]),
        ("points curve", ["points", undecodable, mw, "3", report]),
        ("points mw", ["points", curve, undecodable, "3", report]),
        ("classify csv", ["classify", undecodable, report]),
    ):
        yield f"{label} holds the byte 0xff", argv, report


def main():
    root = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else HERE
    with tempfile.TemporaryDirectory() as scratch:
        for label, argv, report in runs(root, scratch):
            code, digest = run(root, argv, report, scratch)
            print(f"{digest}  exit={code}  {label}", flush=True)


if __name__ == "__main__":
    main()
