"""Batch front door: run programs, dataize expressions, run the corpus.

Exit codes: 0 success, 1 runtime error, 2 parse error (including unreadable
files), 3 budget exhaustion. Program output goes to stdout; diagnostics and
traces go to stderr.
"""

import argparse
import contextlib
import fnmatch
import os
import sys

from . import corpus as corpus_mod
from .errors import EvalFault, PhilangError, SyntaxFault
from .runtime import DEFAULT_HEAP_SIZE, DEFAULT_MAX_STEPS, Program
from .atoms import to_text
from .core import Interpreter, is_datum


def _build_argparser():
    ap = argparse.ArgumentParser(prog="philang", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the flags of run and eval
    common.add_argument("--trace", action="store_true", help="print dataization steps to stderr")
    common.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    common.add_argument("--heap-size", type=int, default=DEFAULT_HEAP_SIZE)

    run = sub.add_parser("run", parents=[common], help="run a program file")
    run.add_argument("file")
    run.add_argument(
        "--traceability",
        action="store_true",
        help="attach synthetic source attributes to every formation",
    )

    cor = sub.add_parser("corpus", help="run the feature corpus against its goldens")
    cor.add_argument("glob", nargs="?", default=None, help="filter entry ids (glob)")

    ev = sub.add_parser("eval", parents=[common], help="dataize an expression and print the result")
    ev.add_argument("expr")

    return ap


def _execute(args):
    """Run the file of `run`, or dataize and print the expression of `eval`,
    under the budget, heap size and trace flag of `args`."""
    if args.command == "eval":
        text, file = args.expr, "<expr>"
    else:
        with open(args.file, "r", encoding="utf-8") as fh:  # main reports what this raises
            text, file = fh.read(), args.file
    program = Program(
        text,
        file=file,
        max_steps=args.max_steps,
        heap_size=args.heap_size,
        trace=args.trace,
        traceability=args.command == "run" and args.traceability,
    )
    value = program.run()
    if args.command == "eval" and value is not None:  # written as the program writes: a failing stdout is a fault
        Interpreter.emit(program.interp.stdout, (to_text(value) if is_datum(value) else repr(value)) + "\n")
    return 0


def _run_corpus(args):
    entries = corpus_mod.list_entries()
    if args.glob is not None:
        entries = [e for e in entries if fnmatch.fnmatchcase(e.id, args.glob)]
    width = max((len(e.id) for e in entries), default=8)
    failures = 0
    out = getattr(sys.stdout, "buffer", None)  # None when Python started with descriptor 1 closed
    for entry in entries:
        ok, reason = corpus_mod.check_entry(entry.id)
        failures += not ok
        line = f"{entry.id:<{width}}  {'pass' if ok else 'FAIL'}"
        Interpreter.emit(out, f"{line}  {reason}\n" if reason else line + "\n")
    Interpreter.emit(out, f"{len(entries)} entries, {failures} failing\n")
    return 0 if failures == 0 else 1


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    try:
        return _run_corpus(args) if args.command == "corpus" else _execute(args)
    except (PhilangError, OSError, UnicodeDecodeError) as exc:  # the last two from reading the file of `run`
        if not isinstance(exc, PhilangError):
            exc = PhilangError(f"cannot read {args.file}: {exc}")
            exc.exit_code = SyntaxFault.exit_code
        prefix = "parse error: " if isinstance(exc, SyntaxFault) else "error: "
        report = prefix + f"{exc}\n" + "".join(f"  at {place}\n" for place in exc.frames)
        # a non-UTF-8 byte of a file name is written as Python's own stderr writes it, `\udcff`
        report = report.encode("utf-8", "backslashreplace").decode("utf-8")
        # Write the report and flush what stdout holds. A stream that fails is pointed at /dev/null, unless
        # it is None (closed from the start): a failed flush can leave its bytes buffered, and Python's
        # flush at exit would fail on them again.
        for stream, text in ((sys.stderr, report), (sys.stdout, "")):
            with contextlib.suppress(EvalFault):
                Interpreter.emit(getattr(stream, "buffer", None), text)
                continue
            if stream is not None:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
