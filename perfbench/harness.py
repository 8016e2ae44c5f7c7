"""Loading philang from the checkout, running one op, and the step ledger."""

import io
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "philang")

# Op time is this thread's CPU time. An op is single-threaded work in memory,
# so that is its wall time less the moments the host gave the CPU to someone
# else. On a shared host those stalls set the slowest ops: over five seeds,
# the 11th-slowest corpus op spread by 60-180% of its median in wall time
# and by 6% in CPU time.
op_clock = time.thread_time


def load_philang():
    """Import philang from this checkout's src/ and return the package, with
    its `parser` and `corpus` modules loaded. Raises ImportError when the
    checkout has no src/."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise ImportError(f"no philang package under {SRC}")
    sys.path.insert(0, SRC)
    import philang
    import philang.corpus
    import philang.parser

    if os.path.dirname(os.path.abspath(philang.__file__)) != PACKAGE_DIR:
        raise ImportError(f"philang was imported from {philang.__file__}, not {SRC}")
    return philang


class Outcome:
    """What one op produced and how long it took. It holds no reference to
    the program, so the program and its 1 MiB heap buffer are freed when
    `execute` returns, before the next op allocates its own."""

    __slots__ = ("out", "value", "fault", "steps", "history", "build_s", "run_s")

    def __init__(self, out, value, fault, steps, history, build_s, run_s):
        self.out = out
        self.value = value
        self.fault = fault
        self.steps = steps
        self.history = history
        self.build_s = build_s
        self.run_s = run_s

    @property
    def op_s(self):
        return self.build_s + self.run_s

    @property
    def result(self):
        """What a faithful repeat of the op must reproduce."""
        return (self.out, self.value, self.fault, self.steps)


def _comparable(value):
    """Data compare by value; any other result by its printed form."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    return ("object", repr(value))


def execute(lib, op, build_profile=None, run_profile=None, trace=False):
    """One op: `Program(text)` (parse plus assembly), then `run()`.

    An error that is not a PhilangError is caught here and named as an
    escape, so the oracle counts it instead of the benchmark stopping.
    With profiles given, cProfile records the build and the run separately.
    `trace` turns on the interpreter's own step trace, written to a buffer.
    """
    out, err = io.BytesIO(), io.BytesIO()
    program, value, fault = None, None, None
    build_s = run_s = 0.0
    t0 = op_clock()
    try:
        if build_profile is not None:
            build_profile.enable()
        try:
            program = lib.Program(op.text, file=op.file, max_steps=op.max_steps,
                                  stdout=out, stderr=err, trace=trace)
        finally:
            if build_profile is not None:
                build_profile.disable()
        t1 = op_clock()
        build_s = t1 - t0
        if run_profile is not None:
            run_profile.enable()
        try:
            value = program.run()
        finally:
            if run_profile is not None:
                run_profile.disable()
            run_s = op_clock() - t1
    except lib.PhilangError as exc:
        fault = type(exc).__name__
    except Exception as exc:  # an escape is a measured defect, not a crash
        fault = "escape:" + type(exc).__name__
    if program is None:
        build_s = op_clock() - t0
    steps = history = 0
    if program is not None:
        steps = program.interp.steps
        history = len(program.heap_store.allocations)
    return Outcome(out.getvalue(), _comparable(value), fault, steps, history, build_s, run_s)


class StepLedger:
    """`interp.steps` per op id. The step count is deterministic, so every
    repeat of an op must reproduce the first count."""

    def __init__(self):
        self.steps = {}
        self.mismatches = 0

    def record(self, op_id, steps):
        if self.steps.setdefault(op_id, steps) != steps:
            self.mismatches += 1
