"""Every function the perfbench tracer wraps must exist in primpoints.

The tracer binds wrappers by name (`perfbench/tracer.TRACED`) and the
runner fails a traced pass whose expected functions record no calls
(`perfbench/run.EXPECTED_ON_PATH`).  A refactor that renames or deletes
one of those functions breaks the traced benchmark; this test makes it
fail here first.  Both files are read as source, not imported.
"""

import ast
import importlib
import os

import pytest

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
