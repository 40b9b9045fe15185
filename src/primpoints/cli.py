"""Command-line front end with stable file formats and exit codes.

Exit codes: 0 success, 2 I/O or parse failure, 3 unsupported divisor or
group shape, 4 domain precondition violation, 5 internal verification
failed.  Every subcommand accepts --json for a machine-readable document
carrying a versioned schema tag; all reports are byte-deterministic for
fixed inputs and flags.  Each subcommand builds its JSON document and its
text lines once and hands both to `_emit`, the one place that reads --json.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from fractions import Fraction

from . import formats, hyperell, numfield, permact, pipeline
from .errors import (
    SIZE_BOUND,
    BadInput,
    ParseError,
    PrimpointsError,
    ReduciblePolynomial,
    UnsupportedDivisorShape,
    VerificationFailed,
)

EXIT_OK, EXIT_PARSE, EXIT_SHAPE, EXIT_DOMAIN, EXIT_VERIFY = 0, 2, 3, 4, 5

# in the order of the text report's summary line
_OUTCOME_TEXT = {
    pipeline.NO_EFFECTIVE: "no_effective",
    pipeline.SKIPPED: "skipped_positive_dim",
    pipeline.REDUCIBLE: "reducible",
    pipeline.IMPRIMITIVE: "imprimitive",
    pipeline.PRIMITIVE: "primitive",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_guarded(args.func, args)


def run_guarded(func, *args):
    """func(*args); a package or I/O error it raises becomes its message on
    stderr and its exit code instead.  The one map from errors to exit
    codes, for the subcommands and for the scripts in `scripts/`."""
    try:
        return func(*args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedDivisorShape as exc:
        print(f"unsupported shape: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except ReduciblePolynomial as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        if exc.factors is not None:
            for f, mult in exc.factors.factors:
                print(f"factor: {f.literal()} multiplicity {mult}", file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationFailed as exc:
        print(f"internal verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except PrimpointsError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def build_parser():
    parser = argparse.ArgumentParser(
        prog="primpoints",
        description="low-degree algebraic points on hyperelliptic curves over Q",
    )
    sub = parser.add_subparsers(required=True)

    def command(name, func, help, *arguments):
        """A subparser: each argument a name or (name, options), then --json.

        argparse takes only -<digits> for a negative number and anything
        else after a minus sign for an option; here a value may also start
        with -<digit> or -x, such as the divisor -1*oo or the polynomial
        -x^3+2.  No option of a subcommand starts that way."""
        p = sub.add_parser(name, help=help)
        p._negative_number_matcher = re.compile(r"-[\dx]")
        for arg in arguments:
            dest, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(dest, **options)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    command(
        "classify", cmd_classify, "finiteness verdicts for a cover table CSV",
        "csv_in", "csv_out",
    )
    command(
        "points", cmd_points, "classify degree-d divisor classes on a curve",
        "curve_file", "mw_file", ("degree", dict(type=_size)), "report_out",
    )
    command("field", cmd_field, "primitivity of the field cut out by a polynomial", "poly")
    command(
        "rr", cmd_rr, "dimension and basis of L(D) for a divisor literal",
        "curve_file", "divisor",
    )
    command(
        "construct", cmd_construct, "curve of genus d-1 with a ramified primitive point",
        "poly", ("--seed", dict(type=_size, default=0)),
    )
    command(
        "fiber", cmd_fiber, "fiber specialization sampling report",
        "poly", ("--samples", dict(type=_size, default=20)),
        ("--height", dict(type=_size, default=50)),
    )
    command(
        "twists", cmd_twists, "quadratic twist census with exact verification",
        "poly", ("--max-r", dict(type=_size, default=100)),
        ("--height", dict(type=_size, default=50)),
    )
    command(
        "perm", cmd_perm, "primitivity of a permutation group from cycles",
        ("generators", dict(nargs="+")),
        ("--degree", dict(type=int, default=None)),
    )
    return parser


def _size(text: str) -> int:
    """A size on the command line, read as `formats` reads one from a file:
    argparse's usage error if it is no integer or its absolute value is
    above SIZE_BOUND, so the work it sizes stays bounded."""
    try:
        return formats._size(text, "size", "argument")
    except (ParseError, ValueError):
        message = f"not an integer of absolute value at most {SIZE_BOUND}: {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _int_list(text: str) -> list:
    """A comma-separated list of sizes, for the list options of `scripts/`."""
    return [_size(part) for part in text.split(",")]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            reason = f"{exc.reason} at byte {exc.start}"
            raise ParseError(f"{path} is not UTF-8 text ({reason})") from exc


def _emit(args, doc, lines, path=None):
    """The one report path: under --json the JSON document, else the text
    lines, written to the report file at `path` or else to stdout."""
    if args.json:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(line + "\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_classify(args) -> int:
    rows = formats.parse_cover_csv(_read(args.csv_in))
    results = [(row.label, *pipeline.classify_row(row)) for row in rows]
    doc = {
        "schema": "primpoints.classify/1",
        "rows": [
            {"label": label, "finite_d": finite, "primitive_only_d": prim}
            for label, finite, prim in results
        ],
    }
    _emit(args, doc, formats.verdict_csv_text(results).splitlines(), args.csv_out)
    print(f"classified {len(results)} rows -> {args.csv_out}")
    return EXIT_OK


def _label_text(label) -> str:
    if len(label) == 1:
        return str(label[0])
    return "(" + ",".join(str(c) for c in label) + ")"


def points_report(curve, label, report):
    """The JSON document and the text lines of one `points` report."""
    counts = report.summary()
    doc = {
        "schema": "primpoints.points/1",
        "curve_label": label,
        "model": curve.f.literal(),
        "genus": curve.genus,
        "degree": report.degree,
        "group_order": report.group_order,
        "classes": [
            {
                "label": list(v.label),
                "ell": v.ell,
                "outcome": _OUTCOME_TEXT[v.outcome],
                "subfield_degree": v.subfield_degree,
                "minpoly": v.witness_minpoly.literal() if v.witness_minpoly else None,
                "witness_divisor": v.witness_divisor.literal()
                if v.witness_divisor
                else None,
            }
            for v in report.verdicts
        ],
        "summary": {text: counts[key] for key, text in _OUTCOME_TEXT.items()},
        "primitive_orbits": counts[pipeline.PRIMITIVE],
    }
    lines = [
        f"curve: {label or 'y^2 = ' + doc['model']}",
        f"model: {doc['model']}",
        f"genus: {curve.genus}",
        f"degree: {report.degree}",
        f"group_order: {report.group_order}",
    ]
    for c in doc["classes"]:
        parts = [f"a={_label_text(c['label'])}", f"ell={c['ell']}", f"outcome={c['outcome']}"]
        parts += [f"{key}={c[key]}" for key in ("subfield_degree", "minpoly") if c[key] is not None]
        lines.append("class " + " ".join(parts))
    lines.append("summary: " + " ".join(f"{k}={n}" for k, n in doc["summary"].items()))
    lines.append(f"primitive_orbits={doc['primitive_orbits']}")
    return doc, lines


def cmd_points(args) -> int:
    f, label = formats.parse_curve_file(_read(args.curve_file))
    mw_text = _read(args.mw_file)
    curve = hyperell.curve_new(f)
    mw = formats.parse_mw_file(mw_text, curve)
    report = pipeline.classify_points(curve, mw, args.degree)
    doc, lines = points_report(curve, label, report)
    _emit(args, doc, lines, args.report_out)
    print(f"primitive_orbits={doc['primitive_orbits']}")
    return EXIT_OK


def cmd_field(args) -> int:
    # each warning as one fixed line: Python's own names a file and line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = numfield.field_report(formats.parse_poly(args.poly))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    doc = {"schema": "primpoints.field/1", "primitive": report.is_primitive}
    proper = list(report.proper_subfield_degrees)
    if report.is_primitive:
        line = "primitive"
    elif proper:
        line = f"imprimitive (subfield degree {proper[0]})"
        doc["subfield_degrees"] = proper
    else:
        line = "imprimitive (degree 1 convention)"
    _emit(args, doc, [line])
    return EXIT_OK


def cmd_rr(args) -> int:
    f, _ = formats.parse_curve_file(_read(args.curve_file))
    curve = hyperell.curve_new(f)
    D = formats.parse_divisor(args.divisor, curve)
    space = hyperell.rr_space(curve, D)
    doc = {
        "schema": "primpoints.rr/1",
        "divisor": D.literal(),
        "ell": space.dim,
        "basis": [w.literal() for w in space.basis],
    }
    _emit(args, doc, [f"ell={space.dim}", *(f"basis: {w}" for w in doc["basis"])])
    return EXIT_OK


def cmd_construct(args) -> int:
    m = formats.parse_poly(args.poly)
    curve, witness, alpha = pipeline.construct_primitive_curve(m, args.seed)
    doc = {
        "schema": "primpoints.construct/1",
        "model": curve.f.literal(),
        "genus": curve.genus,
        "witness_point": witness.literal(),
        "witness_degree": witness.degree,
        "shift": str(alpha),
    }
    lines = [
        f"model: y^2 = {doc['model']}",
        f"genus: {curve.genus}",
        f"witness: {doc['witness_point']} degree {witness.degree}",
        f"shift: {doc['shift']}",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_fiber(args) -> int:
    if args.samples < 1 or args.height < 1:
        raise BadInput("sample count and height bound must be at least 1")
    betas = _sample_betas(args.samples, args.height)
    if len(betas) < args.samples:
        raise BadInput(
            f"only {len(betas)} distinct sample values have height at most "
            f"{args.height}; {args.samples} were asked for"
        )
    m = formats.parse_poly(args.poly)
    curve, witness, _ = pipeline.construct_primitive_curve(m, 0)
    D = hyperell.Divisor.make([(witness, 1)])
    space = hyperell.rr_space(curve, D)
    w = next(b for b in space.basis if not b.is_constant)
    report = pipeline.fiber_sample_report(curve, w, betas)
    doc = {
        "schema": "primpoints.fiber/1",
        "model": curve.f.literal(),
        "map": w.literal(),
        "outcomes": [
            {"beta": str(beta), "outcome": outcome} for beta, outcome in report["outcomes"]
        ],
        "primitive_fraction": str(report["primitive_fraction"]),
    }
    lines = [
        f"model: y^2 = {doc['model']}",
        f"map: {doc['map']}",
        *(f"beta={o['beta']} outcome={o['outcome']}" for o in doc["outcomes"]),
        f"primitive_fraction: {report['primitive']}/{report['total']}",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def _sample_betas(count: int, height: int):
    """Deterministic rational samples of bounded height."""
    out = []
    seen = set()
    num, den = 1, 1
    while len(out) < count:
        beta = Fraction(num, den)
        if beta not in seen and abs(beta.numerator) <= height and beta.denominator <= height:
            seen.add(beta)
            out.append(beta)
        num += 2
        if num > height:
            num = 1
            den += 1
            if den > height:
                break
    return out


def cmd_twists(args) -> int:
    f = formats.parse_poly(args.poly)
    result = pipeline.twist_census(f, args.max_r, args.height)
    doc = {
        "schema": "primpoints.twists/1",
        "model": f.literal(),
        "max_r": result.M,
        "height_bound": result.height_bound,
        "hits": [{"r": h.r, "x": str(h.x), "y": str(h.y)} for h in result.hits],
    }
    lines = [f"r={h['r']} x={h['x']} y={h['y']}" for h in doc["hits"]]
    _emit(args, doc, [*lines, f"hits={len(lines)}"])
    return EXIT_OK


def cmd_perm(args) -> int:
    gens = [permact.parse_cycles(text, args.degree) for text in args.generators]
    degree = args.degree or max(len(g) for g in gens)
    gens = [g + tuple(range(len(g), degree)) for g in gens]
    G = permact.PermGroup.make(degree, gens)
    blocks = permact.minimal_blocks(G)
    partition = [sorted(b) for b in blocks.partition] if blocks else None
    doc = {
        "schema": "primpoints.perm/1",
        "degree": degree,
        "order": permact.group_order(G),
        "primitive": partition is None,
        "blocks": partition,
    }
    if partition is None:
        verdict = "primitive"
    else:
        rendered = " ".join("{" + " ".join(map(str, b)) + "}" for b in partition)
        verdict = f"imprimitive blocks: {rendered}"
    _emit(args, doc, [f"order={doc['order']}", verdict])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
