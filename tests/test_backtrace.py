"""Where a fault happened: `PhilangError.frames`, read from the traceback of
a fault that leaves `Program.run`, and the `at` lines the CLI prints."""

import pytest

from philang.errors import BudgetExceeded, EvalFault, PhilangError, SyntaxFault
from philang.runtime import Program

from conftest import make_program
from test_cli import cli
from test_perfbench_smoke import workloads
from test_robustness import SUM_SRC

UNKNOWN = "[] > main\n  5 > x\n  nope > @\n"
DIV_IN_F = "[x] > f\n  42.div x > @\n[] > main\n  (f 0).as-string > @\n"
# a try token kept in a cage and thrown from the catch, where no try absorbs it
ESCAPING = ("[] > main\n  cage > c\n  try > @\n    [t]\n      seq > @\n        c.write t\n"
            "        t 1\n    [e]\n      c 2 > @\n    TRUE\n")
# the body of `while` is an atom, applied to the index: a thunk with no term
ATOM_BODY = "[] > main\n  while. > @\n    TRUE\n    42.div\n"


def _frames(text, file, **kwargs):
    program, _out, _err = make_program(text, file=file, **kwargs)
    with pytest.raises(PhilangError) as e:
        program.run()
    return e.value.frames


@pytest.mark.parametrize("text, file, frames", [
    (UNKNOWN, "p.phi", ("main (p.phi:2-2)",)),
    ("42.div 0", "<expr>", ("div (<expr>:0-0)",)),
    # the decoratee of `f 0` is run by the resolver, in no thunk of f's
    (DIV_IN_F, "f.phi", ("div (f.phi:1-1)", "main (f.phi:3-3)")),
    (ESCAPING, "e.phi", ("try (e.phi:3-6)",)),
    (ATOM_BODY, "a.phi", ("div", "while (a.phi:3-3)")),
])
def test_a_fault_names_where_it_happened_innermost_first(text, file, frames):
    assert _frames(text, file) == frames


def test_a_budget_fault_names_where_the_loop_was():
    text = workloads.loop_text(100)
    frames = _frames(text, "w.phi", max_steps=300)
    assert frames == ("[] (w.phi:12-12)", "seq (w.phi:12-12)", "while (w.phi:10-13)", "seq (w.phi:5-5)")
    assert text.splitlines()[12].strip() == "acc.write (acc.add i)"


def test_deep_recursion_names_the_places_of_one_level():
    # where Python's stack runs out depends on the caller's depth, so which
    # place is innermost does too; every level passes through the first three
    frames = set(_frames(SUM_SRC.format(n=5000), "s.phi"))
    assert {"sum (s.phi:4-4)", "add (s.phi:4-4)", "if (s.phi:3-3)"} <= frames
    assert frames <= {"sum (s.phi:4-4)", "add (s.phi:4-4)", "if (s.phi:3-3)", "sum (s.phi:1-4)"}


def test_at_most_eight_distinct_places():
    # nine objects, each decorated by the next; the last one divides by zero
    text = "".join(f"[] > o{i}\n  o{i + 1}.add 1 > @\n" for i in range(9)) + "[] > o9\n  1.div 0 > @\no0\n"
    frames = _frames(text, "n.phi")
    assert len(frames) == 8 and frames[0] == "div (n.phi:19-19)"


@pytest.mark.parametrize("make", [
    lambda: Program("[] > main\n  1 >\n"),
    lambda: Program("1.add 1\n", max_steps=-1),
    lambda: Program("1.add 1\n", heap_size=8),
    lambda: Program("1.add 1\n", max_steps=0).run(),
])
def test_a_fault_before_the_first_step_names_no_place(make):
    with pytest.raises((SyntaxFault, EvalFault, BudgetExceeded)) as e:
        make()
    assert e.value.frames == ()


def test_the_cli_prints_the_places_under_the_error(tmp_path):
    f = tmp_path / "f.phi"
    f.write_text(DIV_IN_F)
    code, out, err = cli("run", str(f))
    assert (code, out) == (1, b"")
    assert err == f"error: division-by-zero: 42 divided by zero\n  at div ({f}:1-1)\n  at main ({f}:3-3)\n".encode()
    code, _out, err = cli("eval", "42.div 0")
    assert (code, err) == (1, b"error: division-by-zero: 42 divided by zero\n  at div (<expr>:0-0)\n")


def test_the_cli_prints_the_places_of_a_budget_fault(tmp_path):
    f = tmp_path / "w.phi"
    f.write_text(workloads.loop_text(100))
    code, out, err = cli("run", str(f), "--max-steps", "300")
    assert (code, out) == (3, b"")
    assert err.decode().splitlines() == ["error: evaluation budget exhausted (300 steps)", f"  at [] ({f}:12-12)",
                                         f"  at seq ({f}:12-12)", f"  at while ({f}:10-13)", f"  at seq ({f}:5-5)"]
