import gc
import io
import os
import subprocess
import sys

import pytest

import philang
from philang.core import NativeObject
from philang.errors import BudgetExceeded, EvalFault, SyntaxFault
from philang.heap import MAX_CAPACITY, HeapStore, PointerValue, make_block
from philang.parser import MAX_NESTING
from philang.runtime import Program

from conftest import fault_kind, run_src


def test_mutual_decoration_cycle():
    with pytest.raises(EvalFault) as e:
        run_src("[] > f\n  g > @\n[] > g\n  f > @\nf.add 1\n")
    assert fault_kind(e) == "circular-reduction"


def test_self_decoration_cycle():
    with pytest.raises(EvalFault) as e:
        run_src("[] > f\n  f > @\nf.add 1\n")
    assert fault_kind(e) == "circular-reduction"


def test_object_consuming_its_own_reduction():
    with pytest.raises(EvalFault) as e:
        run_src("[] > o\n  seq > @\n    o.x\no.add 1\n")
    assert fault_kind(e) == "circular-reduction"


def test_goto_inside_try_inside_goto():
    src = """\
[] > main
  goto > @
    [outer]
      try > @
        [t]
          goto > @
            [inner]
              seq > @
                inner.forward 5
                t "never"
        [e]
          stdout "caught" > @
        TRUE
"""
    out, value = run_src(src)
    assert out == b""
    assert value == 5


def test_throw_crosses_goto_scope():
    src = """\
[] > main
  try > @
    [t]
      goto > @
        [g]
          seq > @
            t "boom"
            g.forward 1
    [e]
      stdout e > @
    TRUE
"""
    out, _value = run_src(src)
    assert out == b"boom"


def test_backward_inside_each_crosses_to_goto():
    # a jump raised in an each body propagates out through the array atom
    src = """\
[] > main
  memory > hits
  seq > @
    hits.write 0
    goto
      [g]
        (array 1 2 3).each > @
          [t]
            seq > @
              hits.write (hits.add 1)
              g.forward
    hits
"""
    _out, value = run_src(src)
    assert value == 1


def test_backward_crosses_try_and_finally_still_runs(probes):
    # the jump is foreign to the try, so it propagates; the finally fires on
    # every pass through the scope (two aborted, one normal)
    src = """\
[] > main
  memory > n
  seq > @
    n.write 0
    goto
      [g]
        try > @
          [t]
            seq > @
              n.write (n.add 1)
              if.
                n.less 3
                g.backward
                TRUE
          [e]
            99 > @
          fin.bump
    n
"""
    _out, value, p = probes(src, "fin")
    assert value == 3
    assert p["fin"].count == 3


def test_deep_but_finite_decoration_chain():
    depth = 120
    lines = ["[] > o0\n  42 > @\n"]
    for i in range(1, depth):
        lines.append(f"[] > o{i}\n  o{i - 1} > @\n")
    lines.append(f"o{depth - 1}.add 0\n")
    _out, value = run_src("".join(lines))
    assert value == 42


def test_signal_through_memo_thunk_is_not_cached():
    # a memoized binding that throws must re-raise on every ask, not cache
    src = """\
[] > main
  goto > @
    [g]
      seq > @
        g.forward 7
        TRUE
"""
    _out, value = run_src(src)
    assert value == 7


def test_sprintf_arg_failure_aborts_before_output():
    src = """\
[] > main
  try > @
    [t]
      stdout (sprintf "price: %d" (t "no")) > @
    [e]
      stdout "handled" > @
    TRUE
"""
    out, _value = run_src(src)
    assert out == b"handled"


def test_while_index_values_are_zero_based():
    src = """\
[] > main
  memory > i
  memory > acc
  seq > @
    i.write 0
    acc.write 0
    while.
      seq (i.write (i.add 1)) (i.less 4)
      [idx]
        acc.write (acc.add idx) > @
    acc
"""
    # three body passes with idx 0, 1, 2
    _out, value = run_src(src)
    assert value == 3


def test_empty_formation_is_a_value():
    _out, value = run_src("[] > f\nf\n")
    from philang.core import Closure

    assert isinstance(value, Closure)


def test_heap_config_minimum():
    with pytest.raises(EvalFault) as e:
        run_src("42\n", heap_size=8)
    assert str(e.value) == f"heap-config: heap capacity must be an int from 16 to {MAX_CAPACITY} bytes, got 8"


@pytest.mark.parametrize("size", [1 << 63, 1 << 70, "x", 64.0, True, False])
def test_heap_size_above_the_ceiling_or_not_an_int_is_a_config_fault(size):
    # rejected before the first claim would try to allocate the buffer; a
    # bool is not an int here, as for the step budget
    with pytest.raises(EvalFault) as e:
        run_src("[] > main\n  heap.malloc 8 > @\n", heap_size=size)
    assert fault_kind(e) == "heap-config"
    assert str(e.value) == f"heap-config: heap capacity must be an int from 16 to {MAX_CAPACITY} bytes, got {size!r}"


def test_heap_size_at_the_ceiling_allocates_nothing_until_claimed():
    # the buffer follows the claims, not the limit
    store = HeapStore(MAX_CAPACITY)
    assert (store.capacity, store.bytes) == (MAX_CAPACITY, bytearray())
    store.malloc(8)
    store.ensure_mapped(0x1A76EC09 + MAX_CAPACITY)
    assert len(store.bytes) < 64 * 1024


def test_negative_step_budget_is_a_config_fault():
    with pytest.raises(EvalFault) as e:
        Program("42\n", max_steps=-5)
    assert fault_kind(e) == "budget-config"
    with pytest.raises(BudgetExceeded):
        Program("42\n", max_steps=0).run()


@pytest.mark.parametrize("budget", [None, "5", float("nan"), True, 2.5])
def test_step_budget_of_another_type_is_a_config_fault(budget):
    with pytest.raises(EvalFault) as e:
        Program("42\n", max_steps=budget)
    assert fault_kind(e) == "budget-config"
    assert str(e.value) == f"budget-config: the step budget must be a non-negative int, got {budget!r}"


class _Needs(NativeObject):
    """A native object class that cannot be made without an argument."""

    def __init__(self, a):
        self.a = a


class _Defaults(NativeObject):
    """A native object class whose every parameter has a default."""

    def __init__(self, a=4):
        self.a = a

    def native_dataize(self, interp):
        return self.a


@pytest.mark.parametrize(
    "value, src",
    [([1, 2], "x\n"), (None, "x.add 1\n"), (2**70, "x\n"), (-(2**63) - 1, "x\n"), (list, "x\n"),
     (_Needs, "x\n")],
)
def test_foreign_extra_builtin_is_a_config_fault(value, src):
    # the core runs only data, native objects and native object classes it
    # can make with no arguments
    with pytest.raises(EvalFault) as e:
        run_src(src, extra_builtins={"x": value})
    assert str(e.value) == (
        "builtins-config: extra builtin 'x' is not a datum inside int64, "
        "a native object or a native object class"
    )


class _Foreign(NativeObject):
    """A native object whose one hook (`dataize`, `attr` or `apply`) hands
    back `value`."""

    def __init__(self, hook, value):
        self.hook = hook
        self.value = value

    def native_dataize(self, interp):
        return self.value if self.hook == "dataize" else super().native_dataize(interp)

    def native_attr(self, interp, name):
        return self.value if self.hook == "attr" else super().native_attr(interp, name)

    def native_apply(self, interp, arg_thunks):
        return self.value if self.hook == "apply" else super().native_apply(interp, arg_thunks)


@pytest.mark.parametrize(
    "hook, value, src, message",
    [
        ("dataize", [1], "x\n", "builtins-config: cannot reduce [1], which a native object handed back"),
        ("dataize", None, "x.add 1\n",
         "builtins-config: cannot resolve on None, which a native object handed back"),
        ("attr", None, "x.x\n", "builtins-config: cannot reduce None, which a native object handed back"),
        ("attr", None, "x.x 1\n", "builtins-config: cannot apply None, which a native object handed back"),
        # a cage that holds the None a hook handed back is written, not empty
        ("attr", None, "[] > main\n  cage > c\n  seq > @\n    c.write (x.x)\n    c\n",
         "builtins-config: cannot reduce None, which a native object handed back"),
        ("dataize", 2**70, "x\n", f"int64-overflow: {2**70} does not fit in a signed 64-bit integer"),
        ("dataize", 2**70, "stdout x\n", f"int64-overflow: {2**70} does not fit in a signed 64-bit integer"),
        ("attr", 2**70, "x.x\n", f"int64-overflow: {2**70} does not fit in a signed 64-bit integer"),
        ("apply", 2**70, "x 1\n", f"int64-overflow: {2**70} does not fit in a signed 64-bit integer"),
    ],
)
def test_foreign_value_from_a_native_hook_is_a_fault(hook, value, src, message):
    # what a hook hands back is checked where it enters the core, so nothing
    # but a PhilangError leaves Program.run and no int outside int64 escapes
    with pytest.raises(EvalFault) as e:
        run_src(src, extra_builtins={"x": _Foreign(hook, value)})
    assert str(e.value) == message


def test_block_without_a_decoder_given_as_a_builtin_has_no_datum():
    block = make_block(PointerValue(HeapStore(64), 0, 8), 8)
    with pytest.raises(EvalFault) as e:
        run_src("stdout x\n", extra_builtins={"x": block})
    assert str(e.value) == "missing-decoratee: block does not reduce to a datum"


def test_extra_builtin_at_the_int64_edge_or_a_native_class_runs():
    from philang.atoms import MemoryCell

    assert run_src("x\n", extra_builtins={"x": -(2**63)})[1] == -(2**63)
    src = "[] > main\n  cell > m\n  seq > @\n    m.write 3\n    m\n"
    assert run_src(src, extra_builtins={"cell": MemoryCell})[1] == 3
    assert run_src("x.add 1\n", extra_builtins={"x": _Defaults})[1] == 5


def test_budget_is_deterministic():
    src = "[] > main\n  goto > @\n    [g]\n      g.backward > @\n"
    counts = []
    for _ in range(2):
        try:
            run_src(src, max_steps=777)
        except BudgetExceeded as e:
            counts.append(e.limit)
    assert counts == [777, 777]


# Recursive `sum n`: each level nests one `n.add (sum ...)` inside the next.
SUM_SRC = """\
[n] > sum
  if. > @
    n.less 1
    0
    n.add (sum (n.sub 1))
[] > main
  sum {n} > @
"""


def test_deep_recursion_completes():
    # fails when a level of object nesting costs more Python frames
    limit = sys.getrecursionlimit()
    _out, value = run_src(SUM_SRC.format(n=340))
    assert value == 340 * 341 // 2 == 57970
    assert sys.getrecursionlimit() == limit


def test_too_deep_recursion_is_an_eval_fault():
    limit = sys.getrecursionlimit()
    with pytest.raises(EvalFault) as e:
        run_src(SUM_SRC.format(n=5000))
    assert fault_kind(e) == "deep-recursion"
    assert sys.getrecursionlimit() == limit


def test_deeply_nested_program_parses_and_runs():
    # parsing recurses per nested line, so it needs the same headroom as a run
    depth = 600
    lines = ["[] > main"] + ["  " * i + "seq" + (" > @" if i == 1 else "") for i in range(1, depth)]
    limit = sys.getrecursionlimit()
    _out, value = run_src("\n".join(lines + ["  " * depth + "42"]) + "\n")
    assert value == 42
    assert sys.getrecursionlimit() == limit


def test_traceability_on_a_long_dispatch_chain_keeps_the_outcome():
    # 5,000 dispatches on one line nest 5,000 terms; attaching source spans
    # walks them without recursing, so only the run itself runs out of stack
    text = "[] > main\n  x" + ".b" * 5000 + " > @\n"
    outcomes = []
    for traceability in (False, True):
        with pytest.raises(EvalFault) as e:
            run_src(text, traceability=traceability)
        outcomes.append((fault_kind(e), str(e.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "deep-recursion"


def _seq_chain(depth):
    lines = ["[] > main"] + ["  " * i + "seq" + (" > @" if i == 1 else "") for i in range(1, depth)]
    return "\n".join(lines + ["  " * depth + "42"]) + "\n"


@pytest.mark.parametrize("depth", [1500, 3000])
def test_too_deeply_nested_lines_are_a_syntax_fault(depth):
    limit = sys.getrecursionlimit()
    with pytest.raises(SyntaxFault):
        Program(_seq_chain(depth))
    assert sys.getrecursionlimit() == limit


def _below(frames, fn):
    """fn() called `frames` Python frames deeper than this call."""
    return fn() if frames <= 0 else _below(frames - 1, fn)


def test_parser_out_of_stack_is_a_syntax_fault():
    # a caller deep in its own stack leaves the parser too little of a
    # 3,000-frame limit for a MAX_NESTING-deep program: RecursionError is
    # mapped to a SyntaxFault, and the caller's limit is left as it was
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(3000)
    try:
        with pytest.raises(SyntaxFault) as e:
            _below(2500, lambda: Program(_seq_chain(MAX_NESTING)))
        assert str(e.value) == "program nesting exceeds what the parser can hold"
        assert sys.getrecursionlimit() == 3000
    finally:
        sys.setrecursionlimit(limit)


def test_too_deeply_nested_parentheses_are_a_syntax_fault():
    with pytest.raises(SyntaxFault):
        Program("[] > main\n  " + "(" * 1500 + "1" + ")" * 1500 + " > @\n")


TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels (indentation plus parentheses)"


def test_lines_nested_to_the_budget_parse():
    # the last line sits at indentation level MAX_NESTING
    program = Program(_seq_chain(MAX_NESTING))
    assert program.entries[0][2].span.last == MAX_NESTING


def test_lines_nested_past_the_budget_are_a_syntax_fault():
    with pytest.raises(SyntaxFault) as e:
        Program(_seq_chain(MAX_NESTING + 1))
    assert str(e.value) == f"<input>:{MAX_NESTING + 1}: {TOO_DEEP}"


def _parens(depth):
    return "(" * depth + "1" + ")" * depth


def _inline_groups(depth):
    # each formation's inline group holds the next formation
    return "[] (" * depth + "1" + " > a)" * depth


@pytest.mark.parametrize("nest", [_parens, _inline_groups])
def test_parentheses_nested_to_the_budget_parse(nest):
    Program(nest(MAX_NESTING) + " > top\n")
    # on an indented line, the indentation counts against the same budget
    Program("[] > main\n  " + nest(MAX_NESTING - 1) + " > @\n")


@pytest.mark.parametrize("nest", [_parens, _inline_groups])
def test_parentheses_nested_past_the_budget_are_a_syntax_fault(nest):
    with pytest.raises(SyntaxFault) as e:
        Program(nest(MAX_NESTING + 1) + " > top\n")
    assert str(e.value) == f"<input>:0: {TOO_DEEP}"
    with pytest.raises(SyntaxFault) as e:
        Program("[] > main\n  " + nest(MAX_NESTING) + " > @\n")
    assert str(e.value) == f"<input>:1: {TOO_DEEP}"


def test_nesting_budget_does_not_move_with_the_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        for text in (_seq_chain(MAX_NESTING + 1), _parens(MAX_NESTING + 1) + " > top\n"):
            with pytest.raises(SyntaxFault) as e:
                Program(text)
            assert TOO_DEEP in str(e.value)
    finally:
        sys.setrecursionlimit(limit)


def test_import_leaves_the_recursion_limit_alone():
    src = os.path.dirname(os.path.dirname(os.path.abspath(philang.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; before = sys.getrecursionlimit(); "
        "import philang, philang.cli, philang.corpus; "
        "print(before, sys.getrecursionlimit())"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout.split()
    assert out[0] == out[1]


@pytest.mark.parametrize("module", ["philang.core", "philang.atoms", "philang.heap", "philang.errors",
                                    "philang.cli"])
def test_each_module_imports_first(module):
    # core and atoms import each other and heap imports core, so importing
    # any one module first must work
    src = os.path.dirname(os.path.dirname(os.path.abspath(philang.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        f"import {module}; from philang.runtime import run_text; "
        "print(run_text('[] > main\\n  stdout (1.add 2) > @\\n'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "(b'3', b'', True)\n"


def test_run_leaves_the_cycle_collector_as_it_found_it():
    threshold = gc.get_threshold()
    try:
        for enabled, limits in ((True, threshold), (False, (123, 4, 5))):
            (gc.enable if enabled else gc.disable)()
            gc.set_threshold(*limits)
            run_src("[] > main\n  goto > @\n    [g]\n      g.forward 1 > @\n")
            assert (gc.isenabled(), gc.get_threshold()) == (enabled, limits)
    finally:
        gc.enable()
        gc.set_threshold(*threshold)


# -- an output stream that fails is a fault ------------------------------------


class _FailingStream(io.BytesIO):
    def __init__(self, method):
        super().__init__()
        self.method = method

    def write(self, data):
        if self.method == "write":
            raise OSError(5, "Input/output error")
        return super().write(data)

    def flush(self):
        if self.method == "flush":
            raise OSError(5, "Input/output error")


def _closed():
    stream = io.BytesIO()
    stream.close()
    return stream


@pytest.mark.parametrize("make, message", [
    (_closed, "I/O operation on closed file."),
    (lambda: _FailingStream("write"), "[Errno 5] Input/output error"),
    (lambda: _FailingStream("flush"), "[Errno 5] Input/output error"),
])
@pytest.mark.parametrize("which", ["stdout", "stderr"])
def test_an_output_stream_that_fails_is_a_fault(make, message, which):
    # stdout takes the program's output and stderr the trace
    streams = {"stdout": io.BytesIO(), "stderr": io.BytesIO(), which: make()}
    program = Program('[] > main\n  stdout "hi" > @\n', trace=True, **streams)
    with pytest.raises(EvalFault) as e:
        program.run()
    assert str(e.value) == f"output-failed: cannot write to the output stream: {message}"


@pytest.mark.parametrize("command", ["run", "eval"])
def test_a_closed_pipe_on_stdout_exits_one_with_an_error_line(tmp_path, command):
    # run fails on the program's own write, eval on the write of its value
    f = tmp_path / "o.phi"
    f.write_text('[] > main\n  stdout "hi" > @\n')
    argv, at = (["run", str(f)], f"  at stdout ({f}:1-1)\n") if command == "run" else (["eval", "42"], "")
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the run, so its first write fails
    try:
        proc = subprocess.run([sys.executable, "-m", "philang.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == (f"error: output-failed: cannot write to the output stream: [Errno 32] Broken pipe\n"
                           + at).encode()


def _with_a_closed_pipe(stream, *argv):
    """Run the CLI with `stream` ("stdout" or "stderr") on a pipe whose read end
    is closed before the run, and capture the other stream."""
    other = "stderr" if stream == "stdout" else "stdout"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "philang.cli", *argv], timeout=120,
                              **{stream: write_end, other: subprocess.PIPE})
    finally:
        os.close(write_end)


def test_a_closed_pipe_on_stdout_under_the_corpus_report_exits_one_with_an_error_line():
    proc = _with_a_closed_pipe("stdout", "corpus", "goto-*")
    assert proc.returncode == 1
    assert proc.stderr == b"error: output-failed: cannot write to the output stream: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("source, argv, code", [
    (None, ["eval", "1.add 1", "--max-steps", "0"], 3),
    (None, ["run", "/no/such.phi"], 2),
    ("[x] > f\n   memory > i\n", ["run"], 2),
    ('[] > main\n  stdout "hi" > @\n', ["run", "--trace"], 1),
])
def test_a_closed_pipe_on_stderr_keeps_the_exit_code(tmp_path, source, argv, code):
    # the report of the fault cannot be written; the exit code is the fault's all the same
    if source is not None:
        f = tmp_path / "p.phi"
        f.write_text(source)
        argv = [*argv, str(f)]
    proc = _with_a_closed_pipe("stderr", *argv)
    assert proc.returncode == code
    assert proc.stdout == b""
