"""Command-line front end with stable file formats and exit codes.

Exit codes: 0 success, 2 I/O or parse failure, 3 unsupported divisor or
group shape, 4 domain precondition violation, 5 internal verification
failed.  Every subcommand accepts --json for a machine-readable document
carrying a versioned schema tag; all reports are byte-deterministic for
fixed inputs and flags, regardless of the parallelism width.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

from . import formats, hyperell, numfield, permact, pipeline
from .errors import (
    BadInput,
    ParseError,
    PrimpointsError,
    ReduciblePolynomial,
    UnsupportedDivisorShape,
    VerificationFailed,
)

EXIT_OK, EXIT_PARSE, EXIT_SHAPE, EXIT_DOMAIN, EXIT_VERIFY = 0, 2, 3, 4, 5

_OUTCOME_TEXT = {
    pipeline.SKIPPED: "skipped_positive_dim",
    pipeline.REDUCIBLE: "reducible",
    pipeline.IMPRIMITIVE: "imprimitive",
    pipeline.PRIMITIVE: "primitive",
    pipeline.NO_EFFECTIVE: "no_effective",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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

    p = sub.add_parser("classify", help="finiteness verdicts for a cover table CSV")
    p.add_argument("csv_in")
    p.add_argument("csv_out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("points", help="classify degree-d divisor classes on a curve")
    p.add_argument("curve_file")
    p.add_argument("mw_file")
    p.add_argument("degree", type=int)
    p.add_argument("report_out")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--jobs", type=_positive_int, default=1, help="parallel class evaluation width"
    )
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("field", help="primitivity of the field cut out by a polynomial")
    p.add_argument("poly")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("rr", help="dimension and basis of L(D) for a divisor literal")
    p.add_argument("curve_file")
    p.add_argument("divisor")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rr)

    p = sub.add_parser("construct", help="curve of genus d-1 with a ramified primitive point")
    p.add_argument("poly")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("fiber", help="fiber specialization sampling report")
    p.add_argument("poly")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--height", type=int, default=50)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("twists", help="quadratic twist census with exact verification")
    p.add_argument("poly")
    p.add_argument("--max-r", type=int, default=100)
    p.add_argument("--height", type=int, default=50)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_twists)

    p = sub.add_parser("perm", help="primitivity of a permutation group from cycles")
    p.add_argument("generators", nargs="+")
    p.add_argument("--degree", type=_positive_int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_perm)

    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def cmd_classify(args) -> int:
    rows = formats.parse_cover_csv(_read(args.csv_in))
    results = []
    for row in rows:
        finite, prim = pipeline.classify_row(row)
        results.append((row.label, finite, prim))
    if args.json:
        doc = {
            "schema": "primpoints.classify/1",
            "rows": [
                {"label": label, "finite_d": finite, "primitive_only_d": prim}
                for label, finite, prim in results
            ],
        }
        _write(args.csv_out, _json_dump(doc))
    else:
        _write(args.csv_out, formats.verdict_csv_text(results))
    print(f"classified {len(results)} rows -> {args.csv_out}")
    return EXIT_OK


def _label_text(label) -> str:
    if len(label) == 1:
        return str(label[0])
    return "(" + ",".join(str(c) for c in label) + ")"


def _points_report_text(curve, label, report) -> str:
    lines = []
    lines.append(f"curve: {label or 'y^2 = ' + curve.f.literal()}")
    lines.append(f"model: {curve.f.literal()}")
    lines.append(f"genus: {curve.genus}")
    lines.append(f"degree: {report.degree}")
    lines.append(f"group_order: {report.group_order}")
    for v in report.verdicts:
        parts = [
            f"a={_label_text(v.label)}",
            f"ell={v.ell}",
            f"outcome={_OUTCOME_TEXT[v.outcome]}",
        ]
        if v.subfield_degree is not None:
            parts.append(f"subfield_degree={v.subfield_degree}")
        if v.witness_minpoly is not None:
            parts.append(f"minpoly={v.witness_minpoly.literal()}")
        lines.append("class " + " ".join(parts))
    counts = report.summary()
    lines.append(
        "summary: "
        + " ".join(
            f"{_OUTCOME_TEXT[key]}={counts[key]}"
            for key in (
                pipeline.NO_EFFECTIVE,
                pipeline.SKIPPED,
                pipeline.REDUCIBLE,
                pipeline.IMPRIMITIVE,
                pipeline.PRIMITIVE,
            )
        )
    )
    lines.append(f"primitive_orbits={counts[pipeline.PRIMITIVE]}")
    return "\n".join(lines) + "\n"


def _points_report_json(curve, label, report) -> dict:
    return {
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
        "summary": {
            _OUTCOME_TEXT[k]: n for k, n in sorted(report.summary().items())
        },
        "primitive_orbits": report.summary()[pipeline.PRIMITIVE],
    }


def cmd_points(args) -> int:
    f, label = formats.parse_curve_file(_read(args.curve_file))
    mw_text = _read(args.mw_file)
    mw = formats.parse_mw_file(mw_text)
    curve = hyperell.curve_new(f)
    hyperell.require_infinite_places(curve, formats.infinite_places_named(mw_text))
    report = pipeline.classify_points(curve, mw, args.degree, jobs=args.jobs)
    if args.json:
        _write(args.report_out, _json_dump(_points_report_json(curve, label, report)))
    else:
        _write(args.report_out, _points_report_text(curve, label, report))
    counts = report.summary()
    print(f"primitive_orbits={counts[pipeline.PRIMITIVE]}")
    return EXIT_OK


def cmd_field(args) -> int:
    # each warning as one fixed line: Python's own names a file and line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = numfield.field_report(formats.parse_poly(args.poly))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    data = {"schema": "primpoints.field/1", "primitive": report.is_primitive}
    proper = list(report.proper_subfield_degrees)
    if report.is_primitive:
        text = "primitive"
    elif proper:
        text = f"imprimitive (subfield degree {proper[0]})"
        data["subfield_degrees"] = proper
    else:
        text = "imprimitive (degree 1 convention)"
    print(_json_dump(data) if args.json else text, end="" if args.json else "\n")
    return EXIT_OK


def cmd_rr(args) -> int:
    f, _ = formats.parse_curve_file(_read(args.curve_file))
    curve = hyperell.curve_new(f)
    D = formats.parse_divisor(args.divisor)
    hyperell.require_infinite_places(curve, formats.infinite_places_named(args.divisor))
    space = hyperell.rr_space(curve, D)
    if args.json:
        doc = {
            "schema": "primpoints.rr/1",
            "divisor": D.literal(),
            "ell": space.dim,
            "basis": [w.literal() for w in space.basis],
        }
        print(_json_dump(doc), end="")
    else:
        print(f"ell={space.dim}")
        for w in space.basis:
            print(f"basis: {w.literal()}")
    return EXIT_OK


def cmd_construct(args) -> int:
    m = formats.parse_poly(args.poly)
    curve, witness, alpha = pipeline.construct_primitive_curve(m, args.seed)
    if args.json:
        doc = {
            "schema": "primpoints.construct/1",
            "model": curve.f.literal(),
            "genus": curve.genus,
            "witness_point": witness.literal(),
            "witness_degree": witness.degree,
            "shift": str(alpha),
        }
        print(_json_dump(doc), end="")
    else:
        print(f"model: y^2 = {curve.f.literal()}")
        print(f"genus: {curve.genus}")
        print(f"witness: {witness.literal()} degree {witness.degree}")
        print(f"shift: {alpha}")
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
    if args.json:
        doc = {
            "schema": "primpoints.fiber/1",
            "model": curve.f.literal(),
            "map": w.literal(),
            "outcomes": [
                {"beta": str(beta), "outcome": outcome}
                for beta, outcome in report["outcomes"]
            ],
            "primitive_fraction": str(report["primitive_fraction"]),
        }
        print(_json_dump(doc), end="")
    else:
        print(f"model: y^2 = {curve.f.literal()}")
        print(f"map: {w.literal()}")
        for beta, outcome in report["outcomes"]:
            print(f"beta={beta} outcome={outcome}")
        print(
            f"primitive_fraction: {report['primitive']}/{report['total']}"
        )
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
    if args.json:
        doc = {
            "schema": "primpoints.twists/1",
            "model": f.literal(),
            "max_r": result.M,
            "height_bound": result.height_bound,
            "hits": [
                {"r": h.r, "x": str(h.x), "y": str(h.y)} for h in result.hits
            ],
        }
        print(_json_dump(doc), end="")
    else:
        for h in result.hits:
            print(f"r={h.r} x={h.x} y={h.y}")
        print(f"hits={len(result.hits)}")
    return EXIT_OK


def cmd_perm(args) -> int:
    gens = [permact.parse_cycles(text, args.degree) for text in args.generators]
    degree = args.degree or max(len(g) for g in gens)
    gens = [g + tuple(range(len(g), degree)) for g in gens]
    G = permact.PermGroup.make(degree, gens)
    if not permact.is_transitive(G):
        print("not transitive", file=sys.stderr)
        return EXIT_DOMAIN
    blocks = permact.minimal_blocks(G)
    primitive = blocks is None
    if args.json:
        doc = {
            "schema": "primpoints.perm/1",
            "degree": degree,
            "order": permact.group_order(G),
            "primitive": primitive,
            "blocks": [sorted(b) for b in blocks.partition] if blocks else None,
        }
        print(_json_dump(doc), end="")
    else:
        print(f"order={permact.group_order(G)}")
        if primitive:
            print("primitive")
        else:
            rendered = " ".join(
                "{" + " ".join(str(x) for x in sorted(b)) + "}"
                for b in blocks.partition
            )
            print(f"imprimitive blocks: {rendered}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
