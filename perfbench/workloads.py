"""Workload definitions: seeded inputs, item calls and exact output checks.

Every workload is a list of items; an item is one call of a public entry
point of primpoints and yields one output string.  ``setup`` builds what
the items need (imports, fixtures, curves), ``run_item`` makes the call and
``failed_items`` compares the outputs with the committed reference and
with exact invariants that hold for every seed.

Only the standard library and the primpoints package are imported; the
package is imported inside ``setup`` so that its import time is counted as
set-up.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 0

# d=4 and d=5 set the median latency of this 4-item workload; running them
# apart keeps one swing of machine speed from falling on both
X0_71_DEGREES = (4, 3, 6, 5)
FIBER_POLYS = ("x^3-2", "x^5-x-1", "x^7-x-1")
FIBERS_PER_CURVE = 40
FIBER_HEIGHT = 50

WORKLOADS = ("x0_71-points", "field-corpus", "rr-sweep", "fiber-sample")


def fixture_path(root, name):
    return os.path.join(root, "fixtures", name)


def _quiet_call(fn, *args):
    """Call fn, returning (result, captured stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        result = fn(*args)
    return result, buf.getvalue()


# ---------------------------------------------------------------------------
# Input generation (pure: depends only on the seed and the fixture files)


def corpus_literals(root, seed):
    """The corpus fields in seeded order.

    The corpus lists fields by degree; in that order the fields of one
    degree run back to back, so one change of machine speed during a pass
    moved the median and tail latency by up to 20%.
    """
    out = []
    with open(fixture_path(root, "primitivity_corpus.txt"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line.split(",")[0])
    random.Random(f"field-corpus/{seed}").shuffle(out)
    return out


def sweep_curve_lines(root):
    out = []
    with open(fixture_path(root, "rr_sweep_curves.txt"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                label, coeffs = line.split(":")
                out.append((label.strip(), coeffs.strip()))
    return out


def _coeff_degree(coeffs: str) -> int:
    return len(coeffs.split()) - 1


def _rr_curves(root):
    """(label, parity, genus, canonical bounds, window of D) per sweep curve."""
    out = []
    for label, coeffs in sweep_curve_lines(root):
        deg = _coeff_degree(coeffs)
        g = (deg - 1) // 2
        span = range(-2 * g, 2 * g + 5)
        if deg % 2 == 0:
            window = [(a, b) for a in span for b in span]
            out.append((label, "even", g, (g - 1, g - 1), window))
        else:
            out.append((label, "odd", g, (2 * g - 2,), [(a,) for a in span]))
    return out


def _minus(K, D):
    return tuple(k - n for k, n in zip(K, D))


def rr_inputs(root, seed):
    """The Riemann-Roch sweep's divisors at infinity, in seeded order.

    Per curve: every D of the window -2g <= n <= 2g+4 of the Riemann-Roch
    acceptance criterion and every K - D, each once, as (label, parity,
    bounds).  The seed shuffles the calls across curves; it does
    not draw a sample, so every seed does the same work.
    """
    items = []
    for label, parity, g, K, window in _rr_curves(root):
        for D in sorted(set(window) | {_minus(K, D) for D in window}):
            items.append((label, parity, D))
    random.Random(f"rr-sweep/{seed}").shuffle(items)
    return items


def rr_identities(root):
    """(key of D, key of K - D, deg D - g + 1) for every D of every window."""
    out = []
    for label, parity, g, K, window in _rr_curves(root):
        for D in window:
            out.append((_rr_key((label, parity, D)),
                        _rr_key((label, parity, _minus(K, D))), sum(D) - g + 1))
    return out


def fiber_inputs(seed):
    """Seeded distinct rational fiber values beta of height in [H/2, H].

    The lower limit keeps out the near-trivial fibers over small-height
    values: how many of those a seed draws moved the median item latency
    by up to 15% between seeds.  The curves are interleaved, so a change
    of machine speed during a pass does not fall on one curve's items.
    """
    rng = random.Random(f"fiber-sample/{seed}")
    items = []
    for lit in FIBER_POLYS:
        seen = set()
        while len(seen) < FIBERS_PER_CURVE:
            beta = Fraction(
                rng.randint(-FIBER_HEIGHT, FIBER_HEIGHT), rng.randint(1, FIBER_HEIGHT)
            )
            height = max(abs(beta.numerator), beta.denominator)
            if 2 * height >= FIBER_HEIGHT and beta not in seen:
                seen.add(beta)
                items.append((lit, beta))
    rng.shuffle(items)
    return items


def item_keys(workload, root, seed):
    """One printable key per item, in run order."""
    if workload == "x0_71-points":
        return [f"d={d}" for d in X0_71_DEGREES]
    if workload == "field-corpus":
        return corpus_literals(root, seed)
    if workload == "rr-sweep":
        return [_rr_key(it) for it in rr_inputs(root, seed)]
    if workload == "fiber-sample":
        return [f"{lit} beta={beta}" for lit, beta in fiber_inputs(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def _rr_key(item):
    label, parity, D = item
    if parity == "even":
        return f"{label} {D[0]}*oo+ + {D[1]}*oo-"
    return f"{label} {D[0]}*oo"


# ---------------------------------------------------------------------------
# Set-up and item calls (run inside a fresh interpreter)


def setup(workload, root, seed, out_dir):
    """Import primpoints and build everything the items need."""
    from primpoints import cli, formats, hyperell, pipeline

    state = {"workload": workload}
    if workload == "x0_71-points":
        curve_file = fixture_path(root, "x0_71.curve")
        mw_file = fixture_path(root, "x0_71.mw")
        with open(curve_file, encoding="utf-8") as fh:
            f, _ = formats.parse_curve_file(fh.read())
        with open(mw_file, encoding="utf-8") as fh:
            formats.parse_mw_file(fh.read())
        hyperell.curve_new(f)
        state["argv"] = [
            ["points", curve_file, mw_file, str(d), os.path.join(out_dir, f"points_d{d}.txt")]
            for d in X0_71_DEGREES
        ]
        state["cli"] = cli
    elif workload == "field-corpus":
        state["argv"] = [["field", lit] for lit in corpus_literals(root, seed)]
        state["cli"] = cli
    elif workload == "rr-sweep":
        curves = {
            label: hyperell.curve_new(formats.parse_coeff_text(coeffs))
            for label, coeffs in sweep_curve_lines(root)
        }
        divisors = []
        for label, parity, D in rr_inputs(root, seed):
            places = (hyperell.OO_PLUS, hyperell.OO_MINUS) if parity == "even" else (hyperell.OO,)
            pairs = [(hyperell.ClosedPoint.infinite(pl), n) for pl, n in zip(places, D)]
            divisors.append((curves[label], hyperell.Divisor.make(pairs)))
        state["divisors"] = divisors
        state["hyperell"] = hyperell
    elif workload == "fiber-sample":
        maps = {}
        for lit in FIBER_POLYS:
            curve, witness, _ = pipeline.construct_primitive_curve(formats.parse_poly(lit), 0)
            space = hyperell.rr_space(curve, hyperell.Divisor.make([(witness, 1)]))
            maps[lit] = (curve, next(b for b in space.basis if not b.is_constant))
        state["fibers"] = [(maps[lit], beta) for lit, beta in fiber_inputs(seed)]
        state["pipeline"] = pipeline
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return state


def run_item(state, index):
    """Make item `index`'s entry-point call; return its output string."""
    workload = state["workload"]
    if workload == "x0_71-points":
        argv = state["argv"][index]
        code, stdout = _quiet_call(state["cli"].main, argv)
        with open(argv[-1], encoding="utf-8") as fh:
            report = fh.read()
        return f"exit={code}\n{stdout}{report}"
    if workload == "field-corpus":
        code, stdout = _quiet_call(state["cli"].main, state["argv"][index])
        return f"exit={code} {stdout.strip()}"
    if workload == "rr-sweep":
        curve, D = state["divisors"][index]
        return str(state["hyperell"].rr_space(curve, D).dim)
    if workload == "fiber-sample":
        (curve, w), beta = state["fibers"][index]
        return state["pipeline"].specialize_fiber(curve, w, beta)
    raise ValueError(f"unknown workload {workload!r}")


def item_count(state):
    for key in ("argv", "divisors", "fibers"):
        if key in state:
            return len(state[key])
    raise ValueError("state without items")


# ---------------------------------------------------------------------------
# Reference outputs and exact checks


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.txt")


def format_reference(keys, outputs):
    """Reference file text: one block per item, key line then output lines."""
    blocks = []
    for key, out in zip(keys, outputs):
        blocks.append(f"## {key}\n{out}\n")
    return "".join(blocks)


def parse_reference(text):
    """Inverse of format_reference: list of (key, output)."""
    items = []
    for block in text.split("## ")[1:]:
        key, _, body = block.partition("\n")
        items.append((key, body[:-1] if body.endswith("\n") else body))
    return items


def load_reference(workload):
    with open(reference_path(workload), encoding="utf-8") as fh:
        return parse_reference(fh.read())


def failed_items(workload, root, seed, outputs, reference=None):
    """Indices of items whose output is missing, wrong or raised.

    `outputs` maps item index -> output string, or None for an item that
    raised.  Every item whose key the reference holds must match it byte
    for byte; on the workloads with a fixed item set (all but
    fiber-sample) the reference must hold every key.  Exact invariants are
    checked for every seed.
    """
    keys = item_keys(workload, root, seed)
    if reference is None:
        reference = load_reference(workload)
    expected = dict(reference)
    bad = set()
    for i, key in enumerate(keys):
        out = outputs.get(i)
        if out is None:
            bad.add(i)
        elif key in expected:
            if out != expected[key]:
                bad.add(i)
        elif workload != "fiber-sample":
            bad.add(i)
    if workload == "rr-sweep":
        bad |= _rr_invariant_failures(root, keys, outputs)
    elif workload == "fiber-sample":
        bad |= _fiber_invariant_failures(outputs, len(keys))
    return bad


def _rr_invariant_failures(root, keys, outputs):
    """Riemann-Roch: l(D) - l(K-D) = deg D - g + 1 for every D of the window."""
    index = {key: i for i, key in enumerate(keys)}
    bad = set()
    for key_d, key_kd, rhs in rr_identities(root):
        i, j = index[key_d], index[key_kd]
        try:
            ok = int(outputs.get(i)) - int(outputs.get(j)) == rhs
        except (TypeError, ValueError):
            ok = False
        if not ok:
            bad |= {i, j}
    return bad


# every outcome but "irreducible-imprimitive": each fiber degree is prime
FIBER_OUTCOMES = ("irreducible-primitive", "reducible", "degenerate")


def _fiber_invariant_failures(outputs, count):
    return {i for i in range(count) if outputs.get(i) not in FIBER_OUTCOMES}
