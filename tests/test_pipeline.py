import itertools
import os
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest

from conftest import run_python
from oracles import cs_bound, invert, poly, x_coordinate_search
from primpoints import arith, numfield, pipeline
from primpoints.arith import UniPoly, is_squarefree, rational_sqrt
from primpoints.errors import (
    BadInput,
    ConstantFunction,
    DegreeTooSmall,
    NotPrimitive,
    NotSquarefree,
    UnsupportedDivisorShape,
)
from primpoints.hyperell import (
    INERT,
    OO,
    OO_MINUS,
    OO_PLUS,
    RAM,
    ClosedPoint,
    CurveFunction,
    Divisor,
    curve_new,
    divisor_of_function,
    point_field,
    rr_space,
)
from primpoints.formats import parse_poly
from primpoints.numfield import field_report, is_primitive_field, nf_minpoly, nf_new
from primpoints.pipeline import (
    DEGENERATE,
    IRRED_PRIMITIVE,
    PRIMITIVE_ONLY,
    UNKNOWN,
    YES,
    Cover,
    CoverRow,
    FinitenessInput,
    MWSpec,
    classify_finiteness,
    classify_points,
    classify_row,
    construct_primitive_curve,
    enumerate_classes,
    fiber_sample_report,
    specialize_fiber,
    twist_census,
)


def x1_45(d):
    return FinitenessInput(41, Cover("relative", 3, 9), d, True, False)


def test_classify_finiteness_x1_45():
    assert classify_finiteness(x1_45(6)).degree_d_finite == PRIMITIVE_ONLY
    assert classify_finiteness(x1_45(5)).degree_d_finite == YES
    assert classify_finiteness(x1_45(8)).degree_d_finite == UNKNOWN
    for d in (2, 3, 4, 7):
        assert classify_finiteness(x1_45(d)).degree_d_finite == YES


def test_classify_finiteness_gonal():
    # hyperelliptic genus 6 (gonality 2): primitive-finite for even 4 <= d <= 6
    inp = FinitenessInput(6, Cover("gonal", 2), 4, True, False)
    assert classify_finiteness(inp).degree_d_finite == PRIMITIVE_ONLY
    inp3 = FinitenessInput(6, Cover("gonal", 2), 3, True, False)
    assert classify_finiteness(inp3).degree_d_finite == YES
    # d = m is excluded for gonal covers
    inp2 = FinitenessInput(6, Cover("gonal", 2), 2, True, False)
    assert classify_finiteness(inp2).degree_d_finite == UNKNOWN
    # simple-Jacobian route needs d <= g-1
    inp_b = FinitenessInput(6, Cover("gonal", 2), 5, False, True)
    assert classify_finiteness(inp_b).degree_d_finite == YES
    inp_b2 = FinitenessInput(6, Cover("gonal", 2), 6, False, True)
    assert classify_finiteness(inp_b2).degree_d_finite == UNKNOWN


def test_classify_finiteness_monotone_in_genus():
    for g in range(7, 20):
        inp = FinitenessInput(g, Cover("gonal", 2), 4, True, False)
        assert classify_finiteness(inp).degree_d_finite == PRIMITIVE_ONLY


def test_classify_finiteness_unknown_branches():
    # gonal: g <= (m - 1)(d - 1) leaves the degree open
    verdict = classify_finiteness(FinitenessInput(3, Cover("gonal", 2), 4, True, False))
    assert verdict == pipeline.FinitenessVerdict(UNKNOWN, ("genus bound fails: 3 <= 3",))
    # relative: the genus bound holds, but the Mordell-Weil group is not finite
    verdict = classify_finiteness(FinitenessInput(41, Cover("relative", 3, 9), 4, False, False))
    assert verdict == pipeline.FinitenessVerdict(
        UNKNOWN, ("relative cover bound holds: 41 > 33", "needs finite mordell-weil group")
    )


def test_cs_bound_examples():
    assert cs_bound(4, 0, 1, 2, 2)  # genus-4 hyperelliptic cannot be bielliptic
    assert not cs_bound(3, 0, 1, 2, 2)  # genus 2, 3 exceptions exist
    assert cs_bound(1, 0, 0, 1, 1)


@pytest.mark.parametrize("kind", ["gonal", "relative"])
def test_classify_finiteness_genus_bound_is_castelnuovo_severi(kind):
    # the cover and a degree-d map to the line; a gonal cover has base genus 0
    for g, m, gprime, d in itertools.product(range(1, 30), range(2, 6), range(1, 4), range(2, 9)):
        if kind == "gonal" and (d == m or gprime > 1):
            continue
        cover = Cover(kind, m, gprime if kind == "relative" else None)
        trace = classify_finiteness(FinitenessInput(g, cover, d, True, False)).reason
        holds = cs_bound(g, gprime if kind == "relative" else 0, 0, m, d)
        assert trace[0].startswith("genus bound fails") != holds


def test_finiteness_preconditions_raise_bad_input():
    with pytest.raises(BadInput):
        FinitenessInput(6, Cover("gonal", 2), 1, True, False)
    with pytest.raises(BadInput):
        FinitenessInput(6, Cover("gonal", 1), 4, True, False)
    for gprime in (0, None):
        with pytest.raises(BadInput):
            FinitenessInput(41, Cover("relative", 3, gprime), 4, True, False)
    with pytest.raises(BadInput):
        cs_bound(4, 0, 1, 0, 2)
    with pytest.raises(BadInput):
        cs_bound(4, -1, 1, 2, 2)


def test_cover_types_check_their_own_rules():
    # an unknown kind was read as a relative cover without gprime: TypeError
    with pytest.raises(BadInput, match="cover_kind must be gonal"):
        classify_finiteness(FinitenessInput(6, Cover("weird", 2), 4, True, False))
    for bad in [("gonal", 1), ("relative", 3), ("relative", 3, 0), ("Gonal", 2)]:
        with pytest.raises(BadInput):
            Cover(*bad)
    assert Cover("gonal", 2, 0).gprime == 0  # a gonal cover ignores gprime
    for g, d_range in [(0, (2, 4)), (5, (1, 4)), (5, (4, 3))]:
        with pytest.raises(BadInput, match="bad genus or degree range"):
            CoverRow("x", g, Cover("gonal", 2), True, False, d_range)


@pytest.mark.parametrize("optimize", [False, True])
def test_finiteness_input_rejects_degree_one_under_optimize(optimize):
    code = (
        "from primpoints.errors import BadInput\n"
        "from primpoints.pipeline import Cover, FinitenessInput\n"
        "try:\n"
        "    FinitenessInput(6, Cover('gonal', 2), 1, True, False)\n"
        "except BadInput:\n"
        "    print('BadInput')\n"
    )
    done = run_python(["-c", code], optimize)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "BadInput\n"


def test_classify_row_x1_45():
    row = CoverRow("45", 41, Cover("relative", 3, 9), True, False, (2, 19))
    finite, prim = classify_row(row)
    assert finite == [2, 3, 4, 5, 7]
    assert prim == [6]


X0_71 = curve_new(
    UniPoly.make([-11, 4, 40, 30, -70, -122, 1, 148, 111, -26, -77, -38, -2, 4, 1])
)
D0 = Divisor.make(
    [(ClosedPoint.infinite(OO_PLUS), 1), (ClosedPoint.infinite(OO_MINUS), -1)]
)
D_INF = Divisor.make(
    [(ClosedPoint.infinite(OO_PLUS), 1), (ClosedPoint.infinite(OO_MINUS), 1)]
)
MW_71 = MWSpec(((35, D0),), D_INF)


def test_enumerate_classes_trivial_group():
    curve = curve_new(poly(1, 0, 0, 0, 0, 0, 1))
    mw = MWSpec(((1, Divisor.zero()),), D_INF)
    entries = enumerate_classes(curve, mw, 2)
    assert len(entries) == 1
    assert entries[0].ell == 2  # the hyperelliptic pencil


def test_enumerate_classes_x0_71_degree2():
    entries = enumerate_classes(X0_71, MW_71, 2)
    assert len(entries) == 35
    ells = {e.label[0]: e.ell for e in entries}
    assert ells[0] == 2
    assert all(v <= 1 for a, v in ells.items() if a != 0)
    assert sum(1 for v in ells.values() if v == 2) == 1
    labels = [e.label[0] for e in entries]
    assert labels == sorted(labels) and labels[0] == -17 and labels[-1] == 17


def test_enumerate_classes_rejects_bad_shapes():
    with pytest.raises(UnsupportedDivisorShape):
        enumerate_classes(X0_71, MW_71, 1)
    bad_gen = Divisor.make(
        [
            (ClosedPoint.affine(poly(0, 1), RAM), 1),
            (ClosedPoint.infinite(OO_PLUS), -1),
        ]
    )
    with pytest.raises(UnsupportedDivisorShape):
        enumerate_classes(X0_71, MWSpec(((2, bad_gen),), D_INF), 2)


def test_classify_points_x0_71_degree4_head():
    report = classify_points(X0_71, MW_71, 4)
    counts = report.summary()
    assert counts["Primitive"] == 0
    assert sum(counts.values()) == 35


def test_classify_points_decides_each_distinct_field_once(monkeypatch):
    # the 28 irreducible degree-6 classes come in 14 pairs a, -a with one
    # field each; 3 of those fields are imprimitive
    calls = {"field_report": [], "principal_subfields": []}
    for module, name in ((pipeline, "field_report"), (numfield, "principal_subfields")):
        original = getattr(module, name)

        def counting(arg, *patterns, _name=name, _original=original):
            calls[_name].append(arg)
            return _original(arg, *patterns)

        monkeypatch.setattr(module, name, counting)
    report = classify_points(X0_71, MW_71, 6)
    assert len(calls["field_report"]) == 14 == len(set(calls["field_report"]))
    assert len(calls["principal_subfields"]) == 3
    by_label = {v.label[0]: v for v in report.verdicts}
    for a in range(1, 18):
        if by_label[a].witness_minpoly is not None:
            assert by_label[a].witness_minpoly == by_label[-a].witness_minpoly
            assert by_label[a].outcome == by_label[-a].outcome


C_X5 = curve_new(poly(1, 0, 0, 0, 0, 1))  # y^2 = x^5 + 1, odd
OO_PLUS_ONLY = Divisor.make([(ClosedPoint.infinite(OO_PLUS), 1)])
OO_ONLY = Divisor.make([(ClosedPoint.infinite(OO), 1)])
# (name, curve, Mordell-Weil spec, degrees): the shipped group; a base that
# leaves labels at the edge of the range unpaired; Z/35 as Z/5 x Z/7; and
# generators 0, whose labels share one divisor
ORACLE_CASES = [
    ("MW_71", X0_71, MW_71, (3, 4, 5, 6)),
    ("base oo+", X0_71, MWSpec(((35, D0),), OO_PLUS_ONLY), (3, 4, 5, 6)),
    ("Z/5 x Z/7", X0_71, MWSpec(((5, D0.scale(7)), (7, D0.scale(5))), D_INF), (3, 4, 5, 6)),
    ("gen 0 x Z/35", X0_71, MWSpec(((3, Divisor.zero()), (35, D0)), D_INF), (3, 6)),
    ("odd gen 0", C_X5, MWSpec(((4, Divisor.zero()),), OO_ONLY), (2, 3)),
]


def _label_divisor(curve, mw, d, label):
    return pipeline._shift_divisor(curve, mw, d) + sum(
        (gen.scale(c) for c, (_, gen) in zip(label, mw.cyclic_factors)), Divisor.zero()
    )


def _oracle_verdicts(curve, mw, d):
    """Every label from scratch: its own L(D) and `_class_verdict`, no pairing."""
    ranges = [pipeline._coefficient_range(order) for order, _ in mw.cyclic_factors]
    reports, out = {}, []
    for label in itertools.product(*ranges):
        D = _label_divisor(curve, mw, d, label)
        space = rr_space(curve, D)
        entry = pipeline.ClassEntry(label, D, space.dim, space.basis)
        out.append(pipeline._class_verdict(curve, d, entry, reports))
    return tuple(out)


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("name, curve, mw, degrees", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_classify_points_matches_the_per_label_oracle(monkeypatch, name, curve, mw, degrees, passes):
    # one L(D) per divisor up to y -> -y; the partner's verdict, witness
    # included, is the one its own L(D) gives.  A second pass runs on the
    # caches the first one warmed and must neither change a verdict nor
    # skip an L(D) of its own.
    spaces = _record_calls(monkeypatch, pipeline, "rr_space")
    for d in degrees:
        expected = _oracle_verdicts(curve, mw, d)
        ranges = [pipeline._coefficient_range(order) for order, _ in mw.cyclic_factors]
        pairs = {frozenset((D, D.conjugate())) for D in (
            _label_divisor(curve, mw, d, label) for label in itertools.product(*ranges)
        )}
        for _ in range(passes):
            spaces.clear()
            report = classify_points(curve, mw, d)
            assert report.verdicts == expected, (name, d)
            assert len(spaces) == len(pairs), (name, d)


# (d, B) of each search box, and the x-polynomials of the points found in it
# with the labels and outcome of their classes
POINT_SEARCH_HITS = {
    (3, 6): {},
    (4, 3): {},
    (5, 2): {},
    (6, 2): {"x^6+2x^5+x^4-x^3-x^2-x+1": ([-12, 12], pipeline.IMPRIMITIVE)},
}


@pytest.mark.parametrize("d, B", sorted(POINT_SEARCH_HITS))
def test_classify_points_matches_an_x_coordinate_point_search(d, B):
    # for 3 <= d <= g a split or ramified point of degree d lies in no class
    # with ell >= 2, so it is the witness of exactly one rigid class
    witnessed = {}  # point -> the verdicts whose witness it is
    for v in classify_points(X0_71, MW_71, d).verdicts:
        if v.witness_minpoly is not None:
            ((point, _),) = v.witness_divisor.terms
            witnessed.setdefault(point, []).append(v)
    hits = x_coordinate_search(X0_71, d, B)
    found = {}
    for point in hits:
        assert len(witnessed.get(point, ())) == 1, point.literal()
        (v,) = witnessed[point]
        report = field_report(point.p)
        proper = report.proper_subfield_degrees
        assert v.outcome == (pipeline.PRIMITIVE if report.is_primitive else pipeline.IMPRIMITIVE)
        assert v.subfield_degree == (proper[0] if proper else None)
        found.setdefault(point.p.literal(), ([], v.outcome))[0].append(v.label[0])
    in_box = {
        point for point in witnessed
        if point.branch != INERT and all(c.denominator == 1 and abs(c) <= B for c in point.p.coeffs)
    }
    assert in_box <= set(hits)
    assert {p: (sorted(labels), outcome) for p, (labels, outcome) in found.items()} == (
        POINT_SEARCH_HITS[(d, B)]
    )


def test_involution_pairs_of_the_shipped_group():
    # a <-> -a at even d, a <-> -a-1 at odd d, read off the earlier label;
    # at odd d label 17 is unpaired
    for d in (3, 4, 5, 6):
        entries = enumerate_classes(X0_71, MW_71, d)
        mirrors = {e.label[0]: entries[e.source].label[0] for e in entries if e.source is not None}
        expected = {a: -a for a in range(1, 18)} if d % 2 == 0 else {a: -a - 1 for a in range(17)}
        assert mirrors == expected
        for e in entries:
            if e.source is not None:
                assert e.divisor == entries[e.source].divisor.conjugate()
                assert e.ell == entries[e.source].ell


def test_mwspec_validation():
    with pytest.raises(UnsupportedDivisorShape):
        MWSpec(((35, D_INF),), D_INF)  # generator must have degree 0
    with pytest.raises(BadInput):
        MWSpec(((0, Divisor.zero()),), D_INF)
    # every shape is checked when the spec is built, not when it is used
    inert = ClosedPoint.affine(poly(0, 1), "inert")  # f(0) = -11 on X0(71)
    off_infinity = Divisor.make([(inert, 1), (ClosedPoint.infinite(OO_PLUS), -2)])
    with pytest.raises(UnsupportedDivisorShape, match="generators must live at infinity"):
        MWSpec(((35, off_infinity),), D_INF)
    for base in (D0, Divisor.zero()):
        with pytest.raises(UnsupportedDivisorShape, match="effective of degree >= 1"):
            MWSpec(((35, D0),), base)
    with pytest.raises(UnsupportedDivisorShape, match="base divisor must live at infinity"):
        MWSpec(((35, D0),), Divisor.make([(inert, 1)]))


# ---------------------------------------------------------------------------
# construction of curves with a prescribed primitive point


def test_construct_primitive_curve_cubic():
    curve, witness, alpha = construct_primitive_curve(poly(-2, 0, 0, 1))
    assert alpha == 0
    assert curve.genus == 2 and curve.f.degree == 6
    assert is_squarefree(curve.f)
    assert witness.branch == RAM and witness.degree == 3
    assert (curve.f % witness.p).is_zero
    assert is_primitive_field(point_field(curve, witness))


def test_construct_primitive_curve_quintic():
    curve, witness, _ = construct_primitive_curve(poly(-1, -1, 0, 0, 0, 1))
    assert curve.genus == 4 and curve.f.degree == 10
    assert witness.degree == 5
    assert is_primitive_field(point_field(curve, witness))


CORPUS_FILE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "primitivity_corpus.txt")


def _primitive_corpus_fields(degrees):
    with open(CORPUS_FILE) as fh:
        rows = [line.strip().split(",") for line in fh if not line.startswith("#")]
    return [lit for lit, tag, _ in rows if tag == "primitive" and parse_poly(lit).degree in degrees]


CONSTRUCTION_FIELDS = _primitive_corpus_fields((3, 4, 5)) + ["x^7-x-1"]


@pytest.mark.parametrize("seed", [0, 1, -2])
def test_construction_is_the_minimal_polynomial_of_phi_squared(seed):
    # the model as the construction first built it: minpoly(phi^2)(x^2)
    assert len(CONSTRUCTION_FIELDS) == 13  # with the fiber polynomials x^3-2, x^5-x-1
    for lit in CONSTRUCTION_FIELDS:
        m = parse_poly(lit)
        curve, witness, alpha = construct_primitive_curve(m, seed)
        assert alpha == seed
        K = nf_new(m)
        phi = K.gen() - K.const(alpha)
        assert curve.f == nf_minpoly(phi * phi).compose(poly(0, 0, 1)), (lit, seed)
        assert witness.p == m.shift_x(alpha)


def test_construct_primitive_curve_rejects_imprimitive():
    with pytest.raises(NotPrimitive):
        construct_primitive_curve(poly(-2, 0, 0, 0, 1))  # x^4 - 2


# ---------------------------------------------------------------------------
# fiber specialization


def build_fiber_map():
    curve, witness, _ = construct_primitive_curve(poly(-2, 0, 0, 1))
    D = Divisor.make([(witness, 1)])
    space = rr_space(curve, D)
    assert space.dim == 2
    w = next(b for b in space.basis if not b.is_constant)
    return curve, witness, w


def test_specialize_fiber_pole_anchor():
    curve, witness, w = build_fiber_map()
    # the inverted map has the witness divisor as its zero fiber
    w_inv = invert(w, curve)
    poles = divisor_of_function(curve, w_inv).negative_part()
    fiber = divisor_of_function(curve, w_inv) + poles
    assert fiber == Divisor.make([(witness, 1)])
    assert specialize_fiber(curve, w_inv, 0) == IRRED_PRIMITIVE


def test_specialize_fiber_sampling():
    curve, _, w = build_fiber_map()
    report = fiber_sample_report(curve, w, range(1, 21))
    assert report["total"] == 20
    # cubic fibers are primitive whenever irreducible; most sample values are
    assert report["primitive_fraction"] >= Fraction(1, 2)
    for _, outcome in report["outcomes"]:
        assert outcome in (IRRED_PRIMITIVE, "irreducible-imprimitive", "reducible", DEGENERATE)


def test_specialize_fiber_constant_rejected():
    curve, _, _ = build_fiber_map()
    with pytest.raises(ConstantFunction):
        specialize_fiber(curve, CurveFunction.constant(3), 0)


def _record_calls(monkeypatch, module, name):
    """Record the first argument of every call of module.name, at every
    primpoints global bound to it."""
    original, calls = getattr(module, name), []

    def recording(arg, *args, **kwargs):
        calls.append(arg)
        return original(arg, *args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("primpoints."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, recording)
    return calls


def test_a_fiber_factors_only_its_point_polynomial(monkeypatch):
    # the norm of a fiber of x^7-x-1 is den times the degree-7 point
    # polynomial: den comes off by exact division, and the field of the
    # place needs no second proof of irreducibility
    curve, witness, _ = construct_primitive_curve(parse_poly("x^7-x-1"))
    space = rr_space(curve, Divisor.make([(witness, 1)]))
    w = next(b for b in space.basis if not b.is_constant)
    factored = _record_calls(monkeypatch, arith, "factor_over_Q")
    fields = _record_calls(monkeypatch, numfield, "nf_new")
    assert specialize_fiber(curve, w, Fraction(-37, 29)) == IRRED_PRIMITIVE
    assert [a.degree for a in factored] == [7]
    assert fields == []


def test_fibers_over_values_congruent_mod_23_split_their_cofactor_once(monkeypatch):
    # the cofactor of the norm mod p depends on beta mod p only: the fibers
    # of x^7-x-1's map over beta and beta + 23 both ask for the split of one
    # degree-7 residue at 23, twice each (the squarefree certificate, then
    # the scan for good primes), and its squarefree test and split run once
    curve, witness, _ = construct_primitive_curve(parse_poly("x^7-x-1"))
    space = rr_space(curve, Divisor.make([(witness, 1)]))
    w = next(b for b in space.basis if not b.is_constant)
    asked, split, gcds = Counter(), Counter(), Counter()
    for name, seen in (("_fp_split", asked), ("_fp_distinct_degree", split), ("_fp_gcd", gcds)):
        def recording(f, *args, _original=getattr(arith, name), _seen=seen):
            _seen[tuple(f), args[-1]] += 1
            return _original(f, *args)

        monkeypatch.setattr(arith, name, recording)
    beta = Fraction(-37, 29)
    for value in (beta, beta + 23):
        assert specialize_fiber(curve, w, value) == IRRED_PRIMITIVE
    at_23 = [key for key in asked if key[1] == 23 and len(key[0]) == 8]
    assert len(at_23) == 1 and asked[at_23[0]] == 4
    assert split[at_23[0]] == 1 and max(split.values()) == 1
    # gcd(f, f') is the one _fp_gcd call whose first argument is f itself
    assert gcds[at_23[0]] == 1


# ---------------------------------------------------------------------------
# quadratic twist census


def test_twist_census_x6_plus_1():
    f = poly(1, 0, 0, 0, 0, 0, 1)
    result = twist_census(f, 3, 3)
    rs = [hit.r for hit in result.hits]
    assert 2 in rs  # f(+-1) = 2
    assert 1 in rs  # f(0) = 1
    for hit in result.hits:
        assert Fraction(hit.r) * hit.y * hit.y == f(hit.x)
        assert hit.y != 0
    assert rs == sorted(rs, key=lambda r: (abs(r), r))


def test_twist_census_monotone_in_height():
    f = poly(1, 0, 0, 0, 0, 0, 1)
    small = twist_census(f, 20, 2)
    large = twist_census(f, 20, 6)
    assert len(small.hits) <= len(large.hits)
    assert {h.r for h in small.hits} <= {h.r for h in large.hits}


def test_twist_census_sign_obstruction():
    # f(x) = -(x^6 + 1) is negative everywhere: no positive twists can hit
    f = poly(-1, 0, 0, 0, 0, 0, -1)
    result = twist_census(f, 5, 4)
    assert all(hit.r < 0 for hit in result.hits)


def _squarefree_ints(M):
    """The squarefree r with |r| <= M, ordered by (|r|, r)."""
    out = []
    for a in range(1, M + 1):
        if all(a % (k * k) for k in range(2, isqrt(a) + 1)):
            out.extend([a, -a])
    return out


def _fraction_twist_hits(f, M, height_bound):
    """Test-only copy of the census before it ran in integers and in one
    pass over x: for each squarefree r, the first x in scan order with
    f(x)/r a nonzero rational square, by one Fraction division and
    `rational_sqrt` per (r, x)."""
    xs = [Fraction(p, q) for q in range(1, height_bound + 1)
          for p in range(-height_bound, height_bound + 1) if gcd(abs(p), q) == 1]
    values = [(x, f(x)) for x in xs]
    hits = []
    for r in _squarefree_ints(M):
        for x, val in values:
            if val == 0 or (val > 0) != (r > 0):
                continue
            root = rational_sqrt(val / r)
            if root is not None and root != 0:
                hits.append(pipeline.TwistHit(r, x, root))
                break
    return tuple(hits)


@pytest.mark.parametrize("lit, M, height_bound", [
    *(pytest.param(lit, 100, 20, id=lit)
      for lit in ["x^6+1", "x^7-x-1", "2x^6-3x+5/7", "-3/4*x^6+x^3-1/9"]),
    # every prime up to 10 000 divided out, and no prime at all
    pytest.param("x^7-x-1", 10000, 8, id="x^7-x-1 M=10000 H=8"),
    pytest.param("x^6+1", 1, 60, id="x^6+1 M=1 H=60"),
])
def test_twist_census_matches_the_fraction_route(lit, M, height_bound):
    f = parse_poly(lit)
    assert twist_census(f, M, height_bound).hits == _fraction_twist_hits(f, M, height_bound)


def test_twist_census_memory_does_not_grow_with_the_height_squared():
    # one pass over x keeps no list of them: at height 60, the 4 407 values
    # of x held in lists took over 800 KB
    f = parse_poly("x^6+1")
    twist_census(f, 1, 2)  # caches warmed outside the measurement
    tracemalloc.start()
    try:
        result = twist_census(f, 1, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [hit.r for hit in result.hits] == [1]
    assert peak < 64 * 1024


def test_twist_census_preconditions():
    f = poly(1, 0, 0, 0, 0, 0, 1)
    with pytest.raises(DegreeTooSmall):
        twist_census(poly(1, 0, 0, 0, 0, 1), 3, 3)
    with pytest.raises(DegreeTooSmall):
        twist_census(UniPoly.zero(), 3, 3)
    with pytest.raises(NotSquarefree):
        twist_census(f * poly(1, 1) ** 2, 3, 3)
    with pytest.raises(BadInput):
        twist_census(f, 0, 3)
    with pytest.raises(BadInput):
        twist_census(f, 3, 0)
