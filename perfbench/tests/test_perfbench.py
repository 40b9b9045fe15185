"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Run from the root of a primpoints checkout.  The worker runs in
subprocesses on small item subsets, so the module-level wrapping done by
the tracer never touches this test process.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def worker(tmp_path, workload, items, trace=False, seed=workloads.DEFAULT_SEED):
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"), "--root", ROOT,
        "--workload", workload, "--seed", str(seed), "--items", items,
        "--out-dir", str(tmp_path),
    ]
    if trace:
        cmd += ["--trace-spans", str(tmp_path / f"spans-{workload}.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_outputs(workload):
    keys = workloads.item_keys(workload, ROOT, workloads.DEFAULT_SEED)
    ref = dict(workloads.load_reference(workload))
    return {i: ref[key] for i, key in enumerate(keys)}


# -- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_the_same_seed(workload):
    first = workloads.item_keys(workload, ROOT, 7)
    assert first == workloads.item_keys(workload, ROOT, 7)
    assert len(first) == len(set(first))


def test_seeded_inputs_change_with_the_seed():
    assert workloads.fiber_inputs(1) != workloads.fiber_inputs(2)
    for workload in ("field-corpus", "rr-sweep"):
        one, two = (workloads.item_keys(workload, ROOT, s) for s in (1, 2))
        assert one != two and sorted(one) == sorted(two)


# -- exact checks -------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_outputs_pass(workload):
    outputs = reference_outputs(workload)
    assert workloads.failed_items(workload, ROOT, workloads.DEFAULT_SEED, outputs) == set()


def test_rr_reference_holds_for_every_seed():
    keys = workloads.item_keys("rr-sweep", ROOT, 5)
    ref = dict(workloads.load_reference("rr-sweep"))
    outputs = {i: ref[key] for i, key in enumerate(keys)}
    assert workloads.failed_items("rr-sweep", ROOT, 5, outputs) == set()


def _tampered(workload, index, change):
    ref = workloads.load_reference(workload)
    key, out = ref[index]
    ref[index] = (key, change(out))
    return ref


def test_flipped_verdict_fails_its_item():
    outputs = reference_outputs("field-corpus")
    keys = workloads.item_keys("field-corpus", ROOT, 0)
    i = keys.index("x^6-x-1")
    flip = _tampered(
        "field-corpus", i, lambda out: out.replace("primitive", "imprimitive (subfield degree 2)")
    )
    bad = workloads.failed_items("field-corpus", ROOT, 0, outputs, reference=flip)
    assert bad == {i}


def test_ell_off_by_one_fails():
    outputs = reference_outputs("rr-sweep")
    # a tampered reference: the item no longer matches
    off = _tampered("rr-sweep", 0, lambda out: str(int(out) + 1))
    assert workloads.failed_items("rr-sweep", ROOT, 0, outputs, reference=off) == {0}
    # a wrong output: the reference and the Riemann-Roch identity both catch it
    outputs[3] = str(int(outputs[3]) + 1)
    assert 3 in workloads.failed_items("rr-sweep", ROOT, 0, outputs)
    unknown_seed = workloads.failed_items("rr-sweep", ROOT, 0, outputs, reference=[])
    assert 3 in unknown_seed


def test_imprimitive_prime_degree_fiber_fails_for_any_seed():
    keys = workloads.item_keys("fiber-sample", ROOT, 11)
    outputs = {i: "irreducible-primitive" for i in range(len(keys))}
    assert workloads.failed_items("fiber-sample", ROOT, 11, outputs, reference=[]) == set()
    outputs[5] = "irreducible-imprimitive"
    assert workloads.failed_items("fiber-sample", ROOT, 11, outputs, reference=[]) == {5}


def test_raised_item_fails():
    outputs = reference_outputs("x0_71-points")
    outputs[2] = None
    assert workloads.failed_items("x0_71-points", ROOT, 0, outputs) == {2}


def test_tail_percentile_leaves_ten_items_beyond():
    value, note = run.tail_ms(list(range(100)))
    assert value == 89 and note == "p90.0 of 100 items"
    assert run.tail_ms([3.0, 1.0, 2.0]) == (3.0, "max of 3 items")


# -- worker, traced and untraced ----------------------------------------------

def _field_indices(*literals):
    keys = workloads.item_keys("field-corpus", ROOT, workloads.DEFAULT_SEED)
    return ",".join(str(keys.index(lit)) for lit in literals)


SUBSETS = {
    "field-corpus": _field_indices("x^3-2", "x^4-2", "x^4+x+1", "x^6-x-1"),
    "rr-sweep": ",".join(str(i) for i in range(0, 1200, 40)),
    "fiber-sample": "0,1,40,41",
}


@pytest.mark.parametrize("workload", sorted(SUBSETS))
def test_traced_and_untraced_outputs_match_reference(tmp_path, workload):
    plain = worker(tmp_path, workload, SUBSETS[workload])
    traced = worker(tmp_path, workload, SUBSETS[workload], trace=True)
    assert [it[2] for it in plain["items"]] == [it[2] for it in traced["items"]]
    expected = reference_outputs(workload)
    assert all(out == expected[i] for i, _, out, _ in plain["items"])
    assert "layers" in traced and "layers" not in plain
    assert (tmp_path / f"spans-{workload}.jsonl").stat().st_size > 0


def test_tracer_sees_calls_through_copied_bindings(tmp_path):
    # rr_space reaches kernel_basis only through hyperell's own binding
    rr = tracer.layer_metrics(worker(tmp_path, "rr-sweep", SUBSETS["rr-sweep"], True)["layers"])
    assert rr["hyperell.rr_space.calls"][0] == len(SUBSETS["rr-sweep"].split(","))
    assert rr["linalg.kernel_basis.calls"][0] > 0
    assert rr["numfield.principal_subfields.calls"][0] == 0
    # specialize_fiber reaches classify_place through the lru_cache, which stays on
    fb = tracer.layer_metrics(worker(tmp_path, "fiber-sample", "0,1,2,3", True)["layers"])
    assert fb["hyperell.divisor_of_function.calls"][0] > 0
    assert fb["hyperell.classify_place.calls"][0] > 0
    assert fb["hyperell.classify_place.hit_ratio"][0] > 0
    assert fb["numfield.principal_subfields.calls"][0] == 0
