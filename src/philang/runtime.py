"""Program assembly and execution.

Builds the root scope from a parsed module, picks the entry object
(`main`, else `app`, else the last top-level item) and dataizes it under a
step budget, with stdout captured or streamed.
"""

import contextlib
import io
import sys

from . import atoms
from .core import Closure, Interpreter, NativeObject, Signal
from .errors import INT64_MAX, INT64_MIN, EvalFault, SyntaxFault
from .heap import HeapStore
from .parser import attach_source, parse_entries
from .syntax import Formation, Name, SourceSpan


DEFAULT_MAX_STEPS = 1_000_000
DEFAULT_HEAP_SIZE = 1 << 20

# Parsing recurses through nested lines and reduction through decoration
# chains, so deep programs need more than Python's default recursion limit;
# a limit past ~3000 risks exhausting the C stack instead of raising
# RecursionError.
RECURSION_LIMIT = 3000


@contextlib.contextmanager
def _recursion_headroom():
    """Raise the recursion limit to RECURSION_LIMIT for the block and then
    restore the caller's, so importing or running philang leaves it alone."""
    limit = sys.getrecursionlimit()
    if limit < RECURSION_LIMIT:
        sys.setrecursionlimit(RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _valid_builtin(value):
    """Whether the core can run `value` as a global: a datum (an int inside
    int64), a NativeObject, or a NativeObject class made anew, with no
    arguments, per mention."""
    if isinstance(value, type):
        import inspect  # here, not at the top: it costs start-up time and memory on every run
        try:
            inspect.signature(value).bind()
        except (TypeError, ValueError):
            return False
        return issubclass(value, NativeObject)
    if isinstance(value, int):
        return INT64_MIN <= value <= INT64_MAX
    return isinstance(value, (float, str, bytes, NativeObject))


class Program:
    """A parsed module plus the interpreter it runs in."""

    def __init__(
        self,
        text,
        file="<input>",
        max_steps=DEFAULT_MAX_STEPS,
        heap_size=DEFAULT_HEAP_SIZE,
        trace=False,
        traceability=False,
        stdout=None,
        stderr=None,
        extra_builtins=None,
    ):
        self.stderr = stderr
        try:
            with _recursion_headroom():
                self.entries = parse_entries(text, file)
        except RecursionError:
            raise SyntaxFault("program nesting exceeds what the parser can hold", file) from None
        if type(max_steps) is not int or max_steps < 0:
            raise EvalFault("budget-config", f"the step budget must be a non-negative int, got {max_steps!r}")
        for name, value in (extra_builtins or {}).items():
            if not _valid_builtin(value):
                raise EvalFault("builtins-config", f"extra builtin {name!r} is not a datum inside int64, "
                                "a native object or a native object class")
        store = HeapStore(heap_size)
        self.interp = Interpreter(
            atoms.vocabulary(store, extra=extra_builtins),
            max_steps=max_steps,
            stdout=stdout,
            stderr=stderr,
            trace=trace,
        )
        self.heap_store = store
        if traceability:
            for _name, _const, term in self.entries:
                attach_source(term, warn=lambda m: self.interp.emit(self.interp.stderr, f"warning: {m}\n"))
        root_term = Formation(
            params=[],
            variadic=False,
            bindings=[(n, t, c) for (n, c, t) in self.entries if n is not None],
            name="Q",
            span=SourceSpan(file, 0, max((t.span.last for (_n, _c, t) in self.entries), default=0)),
        )
        self.root = Closure(root_term, None)
        self.interp.root = self.root

    def entry_target(self):
        names = [n for (n, _c, _t) in self.entries if n is not None]
        if "main" in names:
            return Name("main")
        if "app" in names:
            return Name("app")
        if not self.entries:
            raise EvalFault("empty-program", "nothing to dataize: the program is empty")
        name, _const, term = self.entries[-1]
        return Name(name) if name is not None else term

    def run(self):
        """Dataize the entry object; returns the final value."""
        target = self.entry_target()
        try:
            with _recursion_headroom():
                obj = self.interp.evaluate(target, self.root)
                return self.interp.dataize(obj, abstract=True)
        except Signal as s:
            raise EvalFault(
                "escaping-signal",
                f"a {s.kind} signal escaped the program root",
            ) from None
        except RecursionError:
            raise EvalFault(
                "deep-recursion",
                "object nesting exceeded the interpreter stack",
            ) from None


def run_text(text, **kwargs):
    """Run source text with captured output; the keyword arguments are
    Program's. Returns (stdout_bytes, stderr_bytes, value)."""
    out = io.BytesIO()
    err = io.BytesIO()
    value = Program(text, stdout=out, stderr=err, **kwargs).run()
    return out.getvalue(), err.getvalue(), value


def eval_expr(text, **kwargs):
    """Dataize a one-line expression; returns (stdout_bytes, value)."""
    out_bytes, _err, value = run_text(text, **kwargs)
    return out_bytes, value
