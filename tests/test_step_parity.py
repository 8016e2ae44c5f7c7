"""Step parity: the step counter is the interpreter's semantic clock.

The budget decides exit code 3 and where the divergent corpus entry stops,
so a faster dispatch must tick exactly where the plain tree walker did.
The counts below were recorded from the tree-walking reducer before its
dispatch was specialized; any change to them is a change of semantics and
has to be made on purpose.
"""

import io

import pytest

from philang import corpus
from philang.errors import BudgetExceeded
from philang.runtime import Program

CORPUS_STEPS = {
    "goto-backward": 474,
    "goto-forward": 188,
    "goto-complex": 49,
    "multiple-returns": 151,
    "pointers-book": 155,
    "pointers-code": 64,
    "pointers-stack": 178,
    "procedures": 180,
    "classes": 75,
    "destructors": 47,
    "exceptions": 193,
    "exceptions-many": 191,
    "anonymous-functions": 108,
    "generators": 943,
    "types": 187,
    "reflection-monkey-patching": 91,
    "static-methods": 38,
    "inheritance": 58,
    "inheritance-prototype": 68,
    "inheritance-multiple": 38,
    "overloading": 130,
    "generics": 72,
    "templates": 39,
    "mixins": 63,
    "annotations": 118,
    "traceability": 29,
}

# the divergent entry runs until this budget is spent; the step that
# exceeds it is counted before BudgetExceeded is raised
DIVERGENT_BUDGET = 500
DIVERGENT_STEPS = 501

# A `while`/memory counter and a `goto`/`g.backward` loop, 20 iterations each.
LOOP_20 = """\
[] > main
  memory > i
  memory > j
  memory > acc
  seq > @
    i.write 0
    j.write 0
    acc.write 0
    while.
      i.less 20
      [k]
        seq > @
          acc.write (acc.add i)
          i.write (i.add 1)
    goto
      [g]
        seq > @
          if.
            j.less 20
            seq
              acc.write (acc.add (j.mul 2))
              j.write (j.add 1)
              g.backward
            TRUE
    stdout (acc.as-string)
    acc
"""

# Recursive `sum 20` and a decoration chain 20 objects deep.
RECURSION_20 = """\
[n] > sum
  if. > @
    n.less 1
    0
    n.add (sum (n.sub 1))
[x d] > deco
  if. > @
    d.less 1
    x
    deco (x.add 1) (d.sub 1)
[] > main
  seq > @
    stdout (sprintf "%d %d\\n" (sum 20) (deco 7 20))
    (sum 20).add (deco 7 20)
"""

# 30 iterations of malloc, malloc, write both, read both, free the first.
HEAP_30 = """\
[v] > int64
  v.as-int > @
[] > main
  memory > i
  memory > acc
  seq > @
    i.write 0
    acc.write 0
    while.
      i.less 30
      [k]
        seq > @
          heap.malloc (k.add 8) > first
          heap.malloc (k.add 8) > second
          (first.pointer 0 8).block 8 int64 > x
          (second.pointer 0 8).block 8 int64 > y
          x.write ((k.mul 3).add 5)
          y.write ((k.mul 7).add 11)
          acc.write ((acc.add x).add y)
          heap.free first
          i.write (k.add 1)
    stdout (acc.as-string)
    acc
"""

# name -> (text, steps, value)
STRESS = {
    "loop-20": (LOOP_20, 2871, 570),
    "recursion-20": (RECURSION_20, 3239, 237),
    "heap-30": (HEAP_30, 7146, 4830),
}


def _program(text, file, **kwargs):
    return Program(text, file=file, stdout=io.BytesIO(), stderr=io.BytesIO(), **kwargs)


def test_every_terminating_entry_is_listed():
    terminating = {e.id for e in corpus.list_entries() if not e.expect_budget_exhausted}
    assert terminating == set(CORPUS_STEPS)


@pytest.mark.parametrize("entry_id", sorted(CORPUS_STEPS))
def test_corpus_entry_steps(entry_id):
    entry = corpus.get_entry(entry_id)
    program = _program(corpus.program_text(entry_id), entry.program)
    program.run()
    assert program.interp.steps == CORPUS_STEPS[entry_id]


def test_divergent_entry_exhausts_its_budget_at_the_same_step():
    entry = corpus.get_entry("goto-complex-divergent")
    program = _program(corpus.program_text(entry.id), entry.program, max_steps=DIVERGENT_BUDGET)
    with pytest.raises(BudgetExceeded):
        program.run()
    assert program.interp.steps == DIVERGENT_STEPS


@pytest.mark.parametrize("name", sorted(STRESS))
def test_stress_program_steps(name):
    text, steps, value = STRESS[name]
    program = _program(text, name + ".phi")
    assert program.run() == value
    assert program.interp.steps == steps
