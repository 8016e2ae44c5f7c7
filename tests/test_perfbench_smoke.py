"""Smoke test of the benchmark in perfbench/: each workload's small ops run
through the benchmark's own harness, pass their oracles, repeat their step
counts and leave the allocation history the benchmark reports. Nothing under
perfbench/ is imported as a package or changed."""

import ast
import cProfile
import gc
import importlib.util
import io
import os
import pstats
import sys

import pytest

import philang
import philang.corpus
from philang import atoms, parser
from philang.core import AtomApp, Closure, Interpreter, Thunk
from philang.heap import HeapStore
from philang.syntax import Literal

from test_step_parity import STRESS

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


def _profiled_stats(op, phase="run"):
    """cProfile stats of `Program()` (phase "build") or of `run()`."""
    profile = cProfile.Profile()
    outcome = harness.execute(philang, op, **{phase + "_profile": profile})
    assert op.check(outcome.out, outcome.value, outcome.fault)
    return pstats.Stats(profile).stats


def _key(method, cls, module):
    """The cProfile key of `method`, checked to be the qualified name the
    traced run looks up in `module`."""
    code = method.__code__
    assert method.__qualname__ == (f"{cls}." if cls else "") + code.co_name
    assert os.path.basename(code.co_filename) == module
    return (code.co_filename, code.co_firstlineno, code.co_name)


def test_heap_profile_keys_are_found():
    # the traced run finds heap.malloc_us and heap.access_us under these names in heap.py
    (op,) = workloads.heap_small(philang)
    stats = _profiled_stats(op)
    for method in (HeapStore.malloc, HeapStore.read, HeapStore.write):
        assert stats[_key(method, "HeapStore", "heap.py")][1] > 0


def test_core_profile_keys_are_found():
    # the traced run counts core.*_calls by these names in core.py, and takes
    # run_cached's misses from its calls to trace_step
    (op,) = workloads.loop_small(philang)
    stats = _profiled_stats(op)
    for method in (Interpreter.evaluate, Interpreter.soft_resolve, Interpreter.apply,
                   Interpreter.deep_reduce):
        assert stats[_key(method, "Interpreter", "core.py")][1] > 0
    run_cached = _key(Interpreter.run_cached, "Interpreter", "core.py")
    callers = stats[_key(Interpreter.trace_step, "Interpreter", "core.py")][4]
    misses = callers[run_cached][1]
    assert 0 < misses <= stats[run_cached][1]


def _stress_calls(name):
    """Calls per (method, class, module) in one profiled run of STRESS[name]."""
    text, steps, value = STRESS[name]
    program = philang.Program(text, stdout=io.BytesIO(), stderr=io.BytesIO())
    profile = cProfile.Profile()
    assert profile.runcall(program.run) == value
    assert program.interp.steps == steps
    stats = pstats.Stats(profile).stats
    return lambda method, cls, module: stats.get(_key(method, cls, module), (0, 0))[1]


def test_recursion_dispatches_data_in_the_fused_frame():
    # `n.less 1`, `if.` on it and `n.add ...` on a parameter that holds the
    # caller's unrun `n.sub 1` are built in evaluate's fused frame, so only
    # `(sum 20).add ...`, whose receiver is an object, resolves in general
    calls = _stress_calls("recursion-20")
    assert calls(atoms.data_attr, None, "atoms.py") <= 1
    assert calls(Interpreter.soft_resolve, "Interpreter", "core.py") <= 1


def test_recursion_reads_data_arguments_in_force_datum():
    # a literal argument (the 1 in `n.sub 1`) and a thunk that gives a datum
    # are read in force_datum's own frame, with no frame below it; only an
    # unforced thunk is forced, and only an object is reduced
    text, steps, value = STRESS["recursion-20"]
    program = philang.Program(text, stdout=io.BytesIO(), stderr=io.BytesIO())
    force_datum = Interpreter.force_datum.__code__
    literals, callees = [], []

    def watch(frame, event, _arg):
        if event != "call":
            return
        if frame.f_code is force_datum:
            literals.append(type(frame.f_locals["th"]) is Literal)
        elif frame.f_back is not None and frame.f_back.f_code is force_datum:
            callees.append((frame.f_code, type(frame.f_locals.get("obj"))))

    sys.setprofile(watch)
    try:
        assert program.run() == value
    finally:
        sys.setprofile(None)
    assert program.interp.steps == steps
    assert sum(literals) > 20
    reduce_code = Interpreter.deep_reduce.__code__
    assert {code for code, _kind in callees} == {Thunk.force.__code__, reduce_code}
    assert {kind for code, kind in callees if code is reduce_code} == {AtomApp, Closure}


def test_heap_dispatches_native_ops_in_the_fused_frame():
    # malloc, pointer, block, write and free are built in evaluate's fused
    # frame and their arguments read by force_datum, so soft_resolve is left
    # with `v.as-int` in the decoder and `acc.as-string`, and dataize with
    # the decoder's reads, the `while` conditions and the result
    calls = _stress_calls("heap-30")
    assert calls(Interpreter.soft_resolve, "Interpreter", "core.py") <= 61
    assert calls(Interpreter.dataize, "Interpreter", "core.py") <= 93


def _cyclic_garbage(text):
    """Objects the cycle collector finds after one run made with it off."""
    gc.collect()
    gc.disable()
    try:
        philang.Program(text, stdout=io.BytesIO(), stderr=io.BytesIO()).run()
    finally:
        found = gc.collect()
        gc.enable()
    return found


@pytest.mark.parametrize("make", [
    workloads.loop_text,
    lambda n: workloads.recursion_text(n, 3, n),
    lambda n: workloads.heap_text(n, (3, 5, 7, 11)),
], ids=["loop", "recursion", "heap"])
def test_finished_iterations_leave_no_cyclic_garbage(make):
    # a forced thunk drops its scope and a run atom application its inputs,
    # so reference counting frees each finished iteration or nesting level
    # and what is left for the collector does not grow with n
    assert _cyclic_garbage(make(20)) == _cyclic_garbage(make(80))


def _layers_parser_phases():
    """PARSER_PHASES as perfbench/layers.py defines it, read from its source."""
    with open(os.path.join(PERFBENCH, "layers.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PARSER_PHASES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("layers.py defines no PARSER_PHASES")


def test_parser_profile_keys_are_found():
    # the traced run reads parser.lex_ms, parser.forest_ms and parser.block_ms
    # as the cumulative time of these functions in parser.py
    phases = _layers_parser_phases()
    op = min(workloads.corpus_small(philang), key=lambda o: len(o.text))
    stats = _profiled_stats(op, phase="build")
    for metric, fn in (("parser.lex_ms", parser._read_lines),
                       ("parser.forest_ms", parser._build_forest),
                       ("parser.block_ms", parser._parse_block)):
        assert phases[metric] == fn.__qualname__
        entry = stats[_key(fn, None, "parser.py")]
        assert entry[1] > 0 and entry[3] > 0, metric  # calls, cumulative time
