#!/usr/bin/env python3
"""One sha256 per report of a fixed set of CLI runs, for byte-identity checks.

Each run is a fresh `primpoints` interpreter on the checkout's own `src/`
and `fixtures/`.  A digest covers the exit code, stdout, stderr and, for
`points` and `classify`, the report file (its path in the output is
masked, as is the scratch directory that holds the input files), so two
checkouts that print the same lines produce identical reports.  The set:

* `points` on X0(71), d = 3..6, text and --json; at d = 2 and 7..12,
  text; at d = 3 with `--jobs 2`, an option it does not take;
  at d = 3..6, text and --json, with the base 1*oo+, which leaves labels
  unpaired by y -> -y, and with Z/35 presented as Z/5 x Z/7; and at d = 3
  with Mordell-Weil files that each break one rule (an order 0, a
  generator of degree 1 or off infinity, a base that is not effective, is
  0 or is off infinity, `oo` in the base, `0*oo` in a generator, an order
  above the size bound), with one whose generator names `oo` and whose
  base is malformed, and at d = 1 with a base of degree 0;
* `field` on the fields of fixtures/primitivity_corpus.txt, on the
  three imprimitive sextics of X0(71) at d = 6, on the composed fields
  g(h(x)) of degrees 2*4, 4*2, 3*3, 2*5, 5*2, 3*4 and 2*6 (built with the
  checkout's own `UniPoly.compose`), on x^8+1, x^8-40x^6+352x^4-960x^2+576
  and x^9-3x^3+1, whose Frobenius elements all have small order, so that
  the choice of prime for the principal subfields matters most there (as
  it does for the corpus field x^6+x^3+1), on the degree-1 x-5, on the
  reducible x^4-1 (exit 4, with one `factor:` line per factor), on
  x^4-2x^2+1 and (x-1)(x-1-23*29*31)(x-5)^2, which are not squarefree
  (exit 4, with a `factor:` line and its multiplicity per factor), and on
  x^99999999999999, whose exponent is above the size bound;
* `fiber --samples 40` on x^3-2, x^5-x-1 and x^7-x-1, and on the maps of
  even degree of x^4-x-1 and x^6+x+1;
* `rr` on divisors with affine parts, split, ramified and inert, on even
  and odd models, with one-sided and negative bounds at infinity; on
  degree-2 split points whose two multiplicities differ by 2 or 3, either
  way round; on ramified multiplicities 4 and 5; on places at infinity
  that the model does not have, also with multiplicity 0 and also before
  a term that does not parse; on
  y^2 = 4/9*x^6 + 7/5*x + 1, whose coefficients are not all integers; on
  divisors at infinity alone, 5*oo and 1*oo on y^2 = x^5 + 1, 9*oo on
  y^2 = x^7 + 2, 4*oo+ + -1*oo- on y^2 = x^6 + 1, and 6*oo+ + 0*oo- and
  5*oo+ + -1*oo- on y^2 = x^6 + 3x + 1, whose basis elements cancel at
  oo- and not at oo+, so that one side of the order at infinity is read
  off the norm; on X0(71) at the
  edges of the span deg V <= max(n+, n-) - g - 1: V of degree 0, no V,
  a negative bound on either side, and 35*(oo+ - oo-), which is
  principal; on X0(71) at 4P - 2*oo+ - 2*oo-, with P the split witness of
  class 12 at d = 6, whose branch roots invert modulo a degree-20 factor
  of the norm; on a point whose polynomial has an exponent above the size
  bound; and on two
  multiplicities above the size bound that cancel, so that a reader
  without the bound finishes on them too;
* `perm`, text and --json, on the generators of every group of the
  checkout's transitive corpus (read through the `transitive_corpus` and
  `cycles_literal` of its `tests/oracles.py`), on S_10, A_10 and S_12, on
  an intransitive group, on bad cycles and degrees, and on a degree and a
  point above the size bound;
* `classify` on fixtures/table1.csv, text and --json;
* `construct` on x^3-2 and x^5-x-1;
* `twists x^6+1 --max-r 30 --height 20` and `--max-r 10000 --height 8`,
  and `twists --max-r 100 --height 50` on x^7-x-1 and 2x^6-3x+5/7;
* sizes on the command line above the size bound: `points` at d = 20001,
  `twists x^6+1` with `--max-r 100000000 --height 2` and with `--max-r 2
  --height 100000`, `fiber x^3-2 --samples 10001`, and `construct x^3-2`
  with a `--seed` of 3001 digits;
* `--help`, at the top level and of each subcommand, which pins every
  usage line;
* `classify` on cover tables whose one row each breaks one rule: m = 1,
  kinds `weird`, `Gonal` and empty, gprime missing or 0 on a relative
  cover, g = 0, ranges `1-4`, `4-3` and `2`, m `two`, the boolean `maybe`,
  a short row, and g, m, gprime and the end of the range `2-100000000`
  above the size bound;
* a zero denominator in a polynomial literal for `field`, `construct`,
  `fiber` and `twists`, in a divisor literal and in the curve file for
  `rr`, and in the base of a Mordell-Weil file for `points`;
* a file holding the byte 0xff as the curve file of `rr` and `points`,
  the Mordell-Weil file of `points` and the cover table of `classify`;
* a polynomial literal that starts with a minus sign for `field`,
  `construct`, `fiber` and `twists`;
* a curve file with a second `f:` line for `rr`, and with a second
  `label:` line, and a Mordell-Weil file with a second `base` line, for
  `points`.

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
# fields whose Frobenius elements all have small order; x^6+x^3+1 is one of
# the corpus fields
SMALL_ORDER_FIELDS = ("x^8+1", "x^8-40x^6+352x^4-960x^2+576", "x^9-3x^3+1")
# fields with repeated factors; the second, (x-1)(x-1-23*29*31)(x-5)^2, is
# not squarefree mod 23, 29 or 31, so its multiplicities come off the gcd
# over Q even where they are 1
NOT_SQUAREFREE_FIELDS = ("x^4-2x^2+1", "x^4-20689x^3+227493x^2-723755x+516950")
# odd- and even-degree fiber maps; an even one has the degree-4 or -6 witness as den
FIBER_POLYS = ("x^3-2", "x^5-x-1", "x^7-x-1", "x^4-x-1", "x^6+x+1")
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
    # a degree and a point above the size bound
    ("()", "--degree", "1000000000000"),
    ("(0 1000000000000)",),
)
X0_71_F = "-11 4 40 30 -70 -122 1 148 111 -26 -77 -38 -2 4 1"
# curve coefficients (lowest degree first) and divisors with affine parts
RR_CASES = (
    ("1 0 0 0 0 0 1", "2*(x; split; 1) + 1*(x; split; -1) + 1*oo+ + 0*oo-"),
    ("1 0 0 0 0 0 1", "3*(x^2+1; ram) + 2*oo+ + -1*oo-"),
    ("1 0 0 0 0 0 1", "1*(x-1; inert) + 1*(x; split; 1) + 3*oo+ + 1*oo-"),
    ("1 0 0 0 0 1", "2*(x; split; 1) + 2*(x+1; ram) + 3*oo"),
    ("1 0 0 0 0 1", "1*(x-1; inert) + 1*(x; split; -1) + 4*oo"),
    ("-4 0 0 0 0 0 1", "1*(x^3-2; ram)"),
    (X0_71_F, "1*(x; inert) + 4*oo+ + 2*oo-"),
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
    # divisors at infinity alone, on both parities
    ("1 0 0 0 0 1", "5*oo"),
    ("1 0 0 0 0 1", "1*oo"),
    ("2 0 0 0 0 0 0 1", "9*oo"),
    ("1 0 0 0 0 0 1", "4*oo+ + -1*oo-"),
    # y^2 = x^6 + 3x + 1, whose basis elements cancel at oo- and not at oo+
    ("1 3 0 0 0 0 1", "6*oo+ + 0*oo-"),
    ("1 3 0 0 0 0 1", "5*oo+ + -1*oo-"),
    # on X0(71), g = 6, where the span has deg V <= max(n+, n-) - 7: one V
    # column, none, and wide spans with a negative bound on either side
    (X0_71_F, "7*oo+ + 0*oo-"),
    (X0_71_F, "6*oo+ + 6*oo-"),
    (X0_71_F, "20*oo+ + -17*oo-"),
    (X0_71_F, "-3*oo+ + 10*oo-"),
    (X0_71_F, "13*oo+ + 1*oo-"),
    (X0_71_F, "35*oo+ + -35*oo-"),
    # 4P - 2*oo+ - 2*oo- with P the split witness of class 12 at d = 6: the
    # branch roots invert modulo a degree-20 factor of the norm
    (X0_71_F, "4*(x^6+2x^5+x^4-x^3-x^2-x+1; split; -2x^5-6x^4-4x^3+3x^2+3x-1)"
              " + -2*oo+ + -2*oo-"),
    # an exponent above the size bound
    ("1 0 0 0 0 0 1", "1*(x^99999999999999-1; ram)"),
    # multiplicities above the size bound, whose sum is 0
    ("1 0 0 0 0 1", "1000000000000000000000*oo + -1000000000000000000000*oo"),
)

# (what is wrong, Mordell-Weil file, degree) for `points` on X0(71): one
# broken rule each, except one input with two faults
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
    ("order above the size bound",
     "order 1000000000000\ngen 1*oo+ + -1*oo-\nbase 1*oo+ + 1*oo-\n", 3),
)
# (name, Mordell-Weil file) of X0(71) other than the shipped one, for
# `points` at d = 3..6: a base of degree 1, and Z/35 as Z/5 x Z/7
MW_VARIANTS = (
    ("base 1*oo+", "order 35\ngen 1*oo+ + -1*oo-\nbase 1*oo+\n"),
    ("Z/5 x Z/7", "order 5\ngen 7*oo+ + -7*oo-\norder 7\ngen 5*oo+ + -5*oo-\nbase 1*oo+ + 1*oo-\n"),
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
    ("g above the size bound", "x,10001,gonal,2,,true,false,2-4"),
    ("m above the size bound", "x,5,gonal,10001,,true,false,2-4"),
    ("gprime above the size bound", "x,41,relative,3,10001,true,false,2-5"),
    ("range end above the size bound", "x,5,gonal,2,,true,false,2-100000000"),
)
ZERO_DENOMINATOR_LITERALS = (
    ("field", "x^2+1/0"),
    ("construct", "x^3-1/0"),
    ("fiber", "x^3+0/0"),
    ("twists", "1/0*x^6+1"),
)

# (subcommand, literal, options) with a literal that starts with a minus sign
LEADING_MINUS = (
    ("field", "-x^3+2", ()),
    ("field", "-x^4+2", ("--json",)),
    ("construct", "-x^3+2", ()),
    ("fiber", "-x^3+2", ("--samples", "40")),
    ("twists", "-x^6-1", ("--max-r", "30", "--height", "20")),
)
# (what is repeated, curve file or None for X0(71)'s, Mordell-Weil file or
# None for rr) with a directive that a file may hold once given twice
REPEATED_DIRECTIVES = (
    ("f:", "f: 1 0 0 0 0 1\nf: 1 0 0 0 0 0 1\n", None),
    ("label:", f"f: {X0_71_F}\nlabel: X0(71)\nlabel: other\n",
     "order 35\ngen 1*oo+ + -1*oo-\nbase 1*oo+ + 1*oo-\n"),
    ("base", None, "order 35\ngen 1*oo+ + -1*oo-\nbase 1*oo+ + 1*oo-\nbase 2*oo+\n"),
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
    """(name, degree, generators in cycle notation) of the checkout's corpus,
    from its test-only `tests/oracles.py`."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import oracles\n"
        "for name, G, _ in oracles.transitive_corpus(7):\n"
        "    print(name, G.degree, *map(oracles.cycles_literal, G.generators), sep='\\t')"
    )
    done = python(root, code, os.path.join(root, "tests"))
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
            argv = ["points", curve, mw, str(d), report, *fmt]
            yield f"points d={d} {' '.join(fmt) or 'text'}", argv, report
    yield "points d=3 --jobs 2", ["points", curve, mw, "3", report, "--jobs", "2"], report
    for d in (2, 7, 8, 9, 10, 11, 12):
        yield f"points d={d} text", ["points", curve, mw, str(d), report], report
    for k, (name, text) in enumerate(MW_VARIANTS):
        path = scratch_file(scratch, f"variant{k}.mw", text)
        for d in (3, 4, 5, 6):
            for fmt in ((), ("--json",)):
                argv = ["points", curve, path, str(d), report, *fmt]
                yield f"points mw {name} d={d} {' '.join(fmt) or 'text'}", argv, report
    for k, (fault, text, d) in enumerate(BAD_MW):
        path = scratch_file(scratch, f"bad{k}.mw", text)
        yield f"points bad mw ({fault}) d={d}", ["points", curve, path, str(d), report], report
    fields = (*corpus_fields(root), *X0_71_SEXTICS, *composed_fields(root), *SMALL_ORDER_FIELDS)
    for lit in (*fields, "x-5", "x^4-1", *NOT_SQUAREFREE_FIELDS, "x^99999999999999"):
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
    argv = ["twists", "x^6+1", "--max-r", "10000", "--height", "8"]
    yield "twists x^6+1 --max-r 10000 --height 8", argv, None
    for lit in TWIST_POLYS:
        yield f"twists {lit}", ["twists", lit, "--max-r", "100", "--height", "50"], None
    yield "points d=20001", ["points", curve, mw, "20001", report], report
    for options in (("--max-r", "100000000", "--height", "2"), ("--max-r", "2", "--height", "100000")):
        yield f"twists x^6+1 {' '.join(options)}", ["twists", "x^6+1", *options], None
    yield "fiber x^3-2 --samples 10001", ["fiber", "x^3-2", "--samples", "10001"], None
    argv = ["construct", "x^3-2", "--seed", "1" + "0" * 3000]
    yield "construct x^3-2 --seed of 3001 digits", argv, None
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
    for command, lit, options in LEADING_MINUS:
        yield f"{command} {lit} {' '.join(options)}".rstrip(), [command, lit, *options], None
    for k, (directive, curve_text, mw_text) in enumerate(REPEATED_DIRECTIVES):
        path = scratch_file(scratch, f"twice{k}.curve", curve_text) if curve_text else curve
        if mw_text is None:
            yield f"rr a second {directive} line", ["rr", path, "3*oo+"], None
        else:
            mw_path = scratch_file(scratch, f"twice{k}.mw", mw_text)
            argv = ["points", path, mw_path, "3", report]
            yield f"points a second {directive} line", argv, report


def main():
    root = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else HERE
    with tempfile.TemporaryDirectory() as scratch:
        for label, argv, report in runs(root, scratch):
            code, digest = run(root, argv, report, scratch)
            print(f"{digest}  exit={code}  {label}", flush=True)


if __name__ == "__main__":
    main()
