"""Batch front door: run programs, dataize expressions, run the corpus.

Exit codes: 0 success, 1 runtime error, 2 parse error (including unreadable
files), 3 budget exhaustion. Program output goes to stdout; diagnostics and
traces go to stderr.
"""

import argparse
import fnmatch
import os
import sys

from . import corpus as corpus_mod
from .errors import BudgetExceeded, EvalFault, SyntaxFault
from .runtime import DEFAULT_HEAP_SIZE, DEFAULT_MAX_STEPS, Program
from .atoms import to_text
from .core import is_datum


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


def _run_file(args):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: cannot read {args.file}: {exc}\n")
        return 2
    return _execute(text, args.file, args, args.traceability, print_value=False)


def _execute(text, file, args, traceability, print_value):
    """Run `text` under the budget, heap size and trace flag of `args`."""
    try:
        program = Program(
            text,
            file=file,
            max_steps=args.max_steps,
            heap_size=args.heap_size,
            trace=args.trace,
            traceability=traceability,
            stdout=sys.stdout.buffer,
            stderr=sys.stderr.buffer,
        )
        value = program.run()
        if print_value and value is not None:  # written as the program writes: a failing stdout is a fault
            program.interp.emit(program.interp.stdout, (to_text(value) if is_datum(value) else repr(value)) + "\n")
    except SyntaxFault as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (BudgetExceeded, EvalFault) as exc:
        sys.stderr.write(f"error: {exc}\n" + "".join(f"  at {place}\n" for place in exc.frames))
        if getattr(exc, "kind", None) == "output-failed":  # so Python's flush of stdout at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3 if isinstance(exc, BudgetExceeded) else 1
    return 0


def _run_corpus(args):
    entries = corpus_mod.list_entries()
    if args.glob is not None:
        entries = [e for e in entries if fnmatch.fnmatchcase(e.id, args.glob)]
    width = max((len(e.id) for e in entries), default=8)
    failures = 0
    for entry in entries:
        ok, reason = corpus_mod.check_entry(entry.id)
        failures += not ok
        line = f"{entry.id:<{width}}  {'pass' if ok else 'FAIL'}"
        sys.stdout.write(f"{line}  {reason}\n" if reason else line + "\n")
    sys.stdout.write(f"{len(entries)} entries, {failures} failing\n")
    return 0 if failures == 0 else 1


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    if args.command == "run":
        return _run_file(args)
    if args.command == "corpus":
        return _run_corpus(args)
    return _execute(args.expr, "<expr>", args, False, print_value=True)


if __name__ == "__main__":
    sys.exit(main())
