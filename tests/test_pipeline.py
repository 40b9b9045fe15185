import itertools
import os
import sys
from fractions import Fraction
from math import gcd

import pytest

from conftest import run_python
from primpoints import arith, numfield, pipeline
from primpoints.arith import UniPoly, is_squarefree, poly, rational_sqrt
from primpoints.errors import (
    BadInput,
    ConstantFunction,
    DegreeTooSmall,
    NotPrimitive,
    NotSquarefree,
    UnsupportedDivisorShape,
)
from primpoints.hyperell import (
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
from primpoints.numfield import is_primitive_field, nf_minpoly, nf_new
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
    cs_bound,
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


class _SerialPool:
    """Stand-in for ProcessPoolExecutor: records the width, maps in-process."""

    widths = []

    def __init__(self, max_workers):
        self.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus,expected", [(4, [4]), (64, [35]), (1, []), (None, [])])
def test_classify_points_caps_the_pool_width(monkeypatch, cpus, expected):
    """--jobs 10**6 never asks for more workers than CPUs or classes."""
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "widths", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    report = classify_points(X0_71, MW_71, 4, jobs=10**6)
    assert _SerialPool.widths == expected
    assert report == classify_points(X0_71, MW_71, 4)


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
    w_inv = w.invert(curve)
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


def _fraction_twist_hits(f, M, height_bound):
    """Test-only copy of the census loop before it ran in integers: one
    Fraction division and `rational_sqrt` per (r, x)."""
    xs = [Fraction(p, q) for q in range(1, height_bound + 1)
          for p in range(-height_bound, height_bound + 1) if gcd(abs(p), q) == 1]
    values = [(x, f(x)) for x in xs]
    hits = []
    for r in pipeline._squarefree_ints(M):
        for x, val in values:
            if val == 0 or (val > 0) != (r > 0):
                continue
            root = rational_sqrt(val / r)
            if root is not None and root != 0:
                hits.append(pipeline.TwistHit(r, x, root))
                break
    return tuple(hits)


@pytest.mark.parametrize("lit", ["x^6+1", "x^7-x-1", "2x^6-3x+5/7", "-3/4*x^6+x^3-1/9"])
def test_twist_census_matches_the_fraction_route(lit):
    f = parse_poly(lit)
    assert twist_census(f, 100, 20).hits == _fraction_twist_hits(f, 100, 20)


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
