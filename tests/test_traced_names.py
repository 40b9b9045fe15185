"""Every function the perfbench tracer wraps must exist in primpoints.

The tracer binds wrappers by name (`perfbench/tracer.TRACED`) and the
runner fails a traced pass whose expected functions record no calls
(`perfbench/run.EXPECTED_ON_PATH`).  A refactor that renames or deletes
one of those functions breaks the traced benchmark; this test makes it
fail here first.  Both files are read as source, not imported.  A
refactor can also take an expected function off the path of a workload
while keeping its name; the fiber-sample path and the subfield search of
the x0_71-points path are checked for that too.
"""

import ast
import importlib
import os
import sys
from fractions import Fraction

import pytest

from primpoints import formats, hyperell, numfield, pipeline

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def _literal(filename, name):
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} defines no {name}")


TRACED = set(_literal("tracer.py", "TRACED"))
FIBER_PATH = _literal("run.py", "EXPECTED_ON_PATH")["fiber-sample"]
X0_71_PATH = _literal("run.py", "EXPECTED_ON_PATH")["x0_71-points"]
EXPECTED_ON_PATH = {
    name for names in _literal("run.py", "EXPECTED_ON_PATH").values() for name in names
}


@pytest.mark.parametrize("qualname", sorted(TRACED | EXPECTED_ON_PATH))
def test_traced_name_resolves_to_a_function(qualname):
    mod_name, fn_name = qualname.split(".")
    module = importlib.import_module(f"primpoints.{mod_name}")
    assert callable(getattr(module, fn_name, None)), qualname


def test_expected_names_are_traced():
    # run.py reads the call count of each expected name from the traced totals
    assert EXPECTED_ON_PATH <= TRACED


def _count_calls(monkeypatch, qualnames):
    """Counting wrappers bound at every primpoints global, as the tracer
    binds its own; returns the live {qualname: calls} dict."""
    calls = dict.fromkeys(qualnames, 0)
    for qualname in qualnames:
        mod_name, fn_name = qualname.split(".")
        original = getattr(importlib.import_module(f"primpoints.{mod_name}"), fn_name)

        def counting(*args, _name=qualname, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("primpoints."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    return calls


def test_one_fiber_calls_every_function_expected_on_the_fiber_path(monkeypatch):
    # set-up and one fiber of x^3-2, as in the fiber-sample workload
    calls = _count_calls(monkeypatch, FIBER_PATH)
    curve, witness, _ = pipeline.construct_primitive_curve(formats.parse_poly("x^3-2"), 0)
    space = hyperell.rr_space(curve, hyperell.Divisor.make([(witness, 1)]))
    w = next(b for b in space.basis if not b.is_constant)
    pipeline.specialize_fiber(curve, w, Fraction(-37, 29))
    assert all(calls.values()), calls


def test_an_imprimitive_sextic_takes_the_subfield_search_on_the_x0_71_path(monkeypatch):
    # the field of the X0(71) degree-6 classes a = +-7: Frobenius cannot
    # prove it primitive, so the traced x0_71 pass must reach both names
    names = ("numfield.principal_subfields", "arith.factor_over_Q")
    assert set(names) <= set(X0_71_PATH)
    calls = _count_calls(monkeypatch, names)
    report = numfield.field_report(formats.parse_poly("x^6+5x^5+7x^4-2x^3-9x^2-2x+4"))
    assert not report.is_primitive
    assert all(calls.values()), calls
