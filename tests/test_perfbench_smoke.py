"""Smoke test of the benchmark in perfbench/: each workload's small ops run
through the benchmark's own harness, pass their oracles, repeat their step
counts and leave the allocation history the benchmark reports. Nothing under
perfbench/ is imported as a package or changed."""

import cProfile
import importlib.util
import os
import pstats

import pytest

import philang
import philang.corpus
from philang.heap import HeapStore

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    path = os.path.join(PERFBENCH, name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load("harness")
workloads = _load("workloads")

# len(program.heap_store.allocations) after each small op; unnamed ops allocate nothing
HISTORY = {"pointers-stack": 1, "heap-00-n30": 60}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_small_ops_pass_through_the_harness(workload):
    _make_ops, make_small = workloads.WORKLOADS[workload]
    for op in make_small(philang):
        first = harness.execute(philang, op)
        second = harness.execute(philang, op)
        assert op.check(first.out, first.value, first.fault), op.id
        assert first.steps == second.steps > 0, op.id
        assert first.history == second.history == HISTORY.get(op.id, 0), op.id


def test_heap_profile_keys_are_found():
    # the traced run finds heap.malloc_us and heap.access_us under these names in heap.py
    (op,) = workloads.heap_small(philang)
    profile = cProfile.Profile()
    outcome = harness.execute(philang, op, run_profile=profile)
    assert op.check(outcome.out, outcome.value, outcome.fault)
    calls = {(path, line, name): row[1] for (path, line, name), row in pstats.Stats(profile).stats.items()}
    for method in (HeapStore.malloc, HeapStore.read, HeapStore.write):
        code = method.__code__
        assert method.__qualname__ == "HeapStore." + code.co_name
        assert os.path.basename(code.co_filename) == "heap.py"
        assert calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0) > 0
