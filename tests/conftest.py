import os
import subprocess
import sys

import hypothesis
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from primpoints import arith  # noqa: E402

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.register_profile("thorough", max_examples=400, deadline=None)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

X0_71_COEFFS = [-11, 4, 40, 30, -70, -122, 1, 148, 111, -26, -77, -38, -2, 4, 1]


@pytest.fixture(autouse=True)
def cold_split_memo():
    """Each test starts with an empty memo of distinct-degree splits, so no
    count of splits depends on the tests that ran before it."""
    arith._fp_split.cache_clear()


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
TESTS = os.path.dirname(os.path.abspath(__file__))


def run_python(args, optimize):
    """Run a fresh interpreter on the package and the test-only `oracles`,
    with or without python -O."""
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, TESTS))),
    )
