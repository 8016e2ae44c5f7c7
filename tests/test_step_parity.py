"""Step parity: the step counter is the interpreter's semantic clock.

The budget decides exit code 3 and where the divergent corpus entry stops,
so a faster dispatch must tick exactly where the plain tree walker did.
The counts below were recorded from the tree-walking reducer before its
dispatch was specialized; any change to them is a change of semantics and
has to be made on purpose.
"""

import hashlib
import io
import random
import sys

import pytest

from philang import corpus
from philang.errors import BudgetExceeded, PhilangError
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

# SHA-256 of the stderr of `trace=True, traceability=True` (the reduction
# trace plus source-span warnings) per terminating entry. The trace names
# every run atom and every reduced decoration, so it pins their order.
CORPUS_TRACE_SHA256 = {
    "goto-backward": "0f183f5f8b97c49c25ba99d4cdffea6b706b115a2daf107cc024fd0d64d3458b",
    "goto-forward": "0c0f9eae8ab813912e1bc1104bcdd77719d5a8a95aecb1b458aed34785122608",
    "goto-complex": "eb248de80a4d084cd3d98c0dd1feeddb9ff223ed57702ddd346f6dc928aa0cb1",
    "multiple-returns": "a7e715f610edb99716f52b2d32afb416aca5fbeebd8f7533d1f8703ec1e53a27",
    "pointers-book": "56b7a29c026823fa7df7e40d81e8186fe122df598a4cae8ddf6c13c97a17f4aa",
    "pointers-code": "99f4b52cbbc61094dd94009e6258dea38dc0f579459016df402470026332431e",
    "pointers-stack": "a40c41134f8690c836bd1c5f581c7eda9a60dfa7725e4bca6ba08624eb979b12",
    "procedures": "02b679aca5373f18c98737854b29b1c705c204b662368912f87064a8474b3159",
    "classes": "08599447d284d76e9ae5eca19affdc5b79d26d9d4e8f422c0f26a44196adb275",
    "destructors": "5ec12ae9d263fe2622f352560f905a481a85817d464181939d2feec150edb0a0",
    "exceptions": "088c05b82ca604a094ef10a35304d569407e1ab68663dd0f7ded1d3ff450606d",
    "exceptions-many": "3cbe22b43c97b2bb822900e0046f5406996b0fed6503433b80b3fe9debe9009e",
    "anonymous-functions": "02b187343cb0c80db95674efe904d4645a258cf152267f7ea0e1d1ded51b4231",
    "generators": "0f7d28c9053c843ffb43481dd8743df393b7abe9fcb5072b94159715ca5a9d99",
    "types": "06a7f8881b6589fc760414ec5dbe5638717c5dbb12a2e9ca5f8cc6728844a896",
    "reflection-monkey-patching": "f48d96669f39538c732403ec1304809dc1176a60acf224f128cb46ceb9b11f10",
    "static-methods": "3cf25abee0a63e2a5563fff3d8a66127441d7208883bb6d1e4804866ffe14b7f",
    "inheritance": "eed634ae9a5a276496e91bd058b50d92d71ba047e6f822c15bd13d93336f7032",
    "inheritance-prototype": "bc2b5a1a9a9c357038f4fa0385b842278a0fadc7cba447ee8ddab551d272d061",
    "inheritance-multiple": "a0f4c19886698ef5f364182cde02828e97261ac09592f62d48b9e4f82defe255",
    "overloading": "7978dd4029b2a8fe951da44bc1aecc2837c990791e3559a3913c1c1b104aa630",
    "generics": "0b8621aeade168012b3c372d48745a1ff8a8ac11cf3f0f5d3bec47e6d1040154",
    "templates": "d6ade9bdcdfacb2b4b303f253fb8ea52466706f0c9fd52348b7470ce40909027",
    "mixins": "a0633d3a7426910c282e99fb41019b107805d9d43fc8e6d3aae9a9ec9b4c4c50",
    "annotations": "0d33354b9f4bea50636f3ae368bf7084ccefb2c5b41a0dccdd490b94f541ca07",
    "traceability": "fa6f14541190109a7b95f135fd26d8585fe7c676120acaf2172b94a5fe943f1b",
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


@pytest.mark.parametrize("entry_id", sorted(CORPUS_STEPS))
def test_corpus_entry_trace(entry_id):
    entry = corpus.get_entry(entry_id)
    program = _program(corpus.program_text(entry_id), entry.program, trace=True, traceability=True)
    program.run()
    trace = program.stderr.getvalue()
    assert hashlib.sha256(trace).hexdigest() == CORPUS_TRACE_SHA256[entry_id]


# Budgets drawn per program for the sweep below: the budget decides where a
# run stops, so every budget is a different place to stop a fused path.
SWEEP_BUDGETS = 250


def _outcome(text, file, budget, trace):
    program = _program(text, file, max_steps=budget, trace=trace)
    try:
        result = ("value", program.run())
    except PhilangError as e:
        result = (type(e).__name__, str(e))
    return result, program.interp.steps, program.interp.stdout.getvalue()


# Corpus entries that dispatch `.eq`, `.starts` or `if.` on an application,
# and entries that dispatch heap, pointer, block, cage and array ops.
SWEEP_ENTRIES = ["anonymous-functions", "exceptions-many", "generators", "goto-forward", "types",
                 "classes", "pointers-book", "pointers-code", "pointers-stack",
                 "reflection-monkey-patching"]


def _sweep_case(name):
    """(text, file, highest budget): past a STRESS program's or a corpus
    entry's step count, or up to three times the divergent entry's budget."""
    if name in STRESS:
        text, steps, _value = STRESS[name]
        return text, name + ".phi", steps + 1
    entry = corpus.get_entry(name)
    top = CORPUS_STEPS[name] + 1 if name in CORPUS_STEPS else 3 * DIVERGENT_BUDGET
    return corpus.program_text(name), entry.program, top


# SHA-256 per sweep case over (budget, outcome, steps, stdout) at each of its
# sampled budgets, in sample order, one repr per line as the parser parity
# pin hashes. Recorded from the traced run while a traced run still took
# the general path only, so these are the general path's outcomes.
SWEEP_SHA256 = {
    "heap-30": "668bea4ddd6f09d5cb61cf13b005facadb2e689768743608849cd39e9270c1fc",
    "loop-20": "d86cd784c1023525ee1696b1d8726bc180411e33d7a7413068d92fe7f355319e",
    "recursion-20": "fc52856cff0e7980243e9be10d85e3fbf7c48f30617d8f9c1ee830d4ec48dbe0",
    "goto-complex-divergent": "048a9e5e51836ae584cf16de4fdc528fc5f01ee589d65730b058973ac1b9f332",
    "anonymous-functions": "0d268619cf4584fb43fe77137aa0bead67560e31cef1ff03c28c951b168eec40",
    "exceptions-many": "279f52c70b61930ea19fb65468073d0337bc784e8493a0aaa28781dd8be72bcc",
    "generators": "1aa6d08210127747ae6faa9f19384eaa789c781ae487354e275b7dbdee50b23d",
    "goto-forward": "57887516cba221e6b15742798d12887836fd0b5af5f317a8bc40c5f10b0e2ff3",
    "types": "2d405154c59511ace57f573c2bc2068b41102eeb6cc4008c893cc999833e5ccc",
    "classes": "8de67d839ca8b2c9e1812069152aae71c76f9ac4fa51cbb23dd6d2d34b261a6c",
    "pointers-book": "bea410263f75112bf12a246b8112a30dbb6dde587dccdde3b04930e9e73a9c00",
    "pointers-code": "dd16a854b0140bbf851fceafd175f282692fa48fb683d80b1ad995cf1918e654",
    "pointers-stack": "e2d0729dbd66d5e65115a68c56af853e4c61e47185c769d950b19b53fe3f8416",
    "reflection-monkey-patching": "9a7cc7a965beecd06e164f1e5286d4c8d330333441ba1e374fa6841565f98bbf",
}


def _digest(budgets, outcomes):
    h = hashlib.sha256()
    for budget, o in zip(budgets, outcomes):
        h.update(repr((budget,) + o).encode("utf-8") + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(STRESS) + ["goto-complex-divergent"] + SWEEP_ENTRIES)
def test_budget_sweep_matches_the_traced_run(name):
    # At every budget the run stops at the step the general path stopped
    # at, with its outcome and output; tracing only writes lines, so the
    # traced run stops there too.
    text, file, top = _sweep_case(name)
    budgets = random.Random(name).sample(range(1, top + 1), min(SWEEP_BUDGETS, top))
    untraced = [_outcome(text, file, budget, trace=False) for budget in budgets]
    assert _digest(budgets, untraced) == SWEEP_SHA256[name]
    for budget, outcome in zip(budgets, untraced):
        assert _outcome(text, file, budget, trace=True) == outcome, f"budget {budget}"


# Near misses and receivers of the fused `recv.op args` shapes, each with the
# outcome and step count of the general path: the fused path must give way
# without a step or a fault message moving.
GUARD_MISSES = {
    "cell-unknown-attr": (
        "[] > main\n  memory > m\n  seq > @\n    m.write 1\n    m.wnite 2\n",
        ("EvalFault", "attribute-not-found: memory has no attribute 'wnite'"), 24),
    "cell-holding-bool": (
        "[] > main\n  memory > m\n  seq > @\n    m.write TRUE\n    m.add 1\n",
        ("EvalFault", "attribute-not-found: memory has no attribute 'add'"), 24),
    "cell-unwritten": (
        "[] > main\n  memory > m\n  m.add 1 > @\n",
        ("EvalFault", "memory-unset: memory read before the first write"), 8),
    "int-if": (
        "[] > main\n  5 > x\n  x.if 1 2 > @\n",
        ("EvalFault", "non-boolean-condition: if condition reduced to 5"), 8),
    "int-add-string": (
        '[] > main\n  5 > x\n  x.add "s" > @\n',
        ("EvalFault", "type-error: add needs a number, got 's'"), 13),
    "bool-less": (
        "[] > main\n  TRUE > b\n  b.less 1 > @\n",
        ("EvalFault", "attribute-not-found: True has no attribute 'less'"), 8),
    "cell-write-faulting-arg": (
        "[] > main\n  memory > m\n  m.write (m.add 1) > @\n",
        ("EvalFault", "memory-unset: memory read before the first write"), 15),
    "float-times-cell": (
        "[] > main\n  memory > m\n  2.5 > x\n  seq > @\n    m.write 4\n    x.mul m\n",
        ("value", 10.0), 31),
    "two-arguments": (
        "[x y] > pair\n  x.sub y > @\n[] > main\n  pair > p\n  1 > one\n  one.add (p 5 3) > @\n",
        ("value", 3), 30),
    "app-if-on-int": (
        "[] > main\n  5 > x\n  (x.add 1).if 1 2 > @\n",
        ("EvalFault", "non-boolean-condition: if condition reduced to 6"), 16),
    "app-recv-faults": (
        "[] > main\n  memory > m\n  (m.add 1).less 2 > @\n",
        ("EvalFault", "memory-unset: memory read before the first write"), 10),
    "app-recv-native": (
        "[] > main\n  (heap.malloc 8).pointer 0 8 > @\n",
        ("value", 0), 23),
    "cell-bool-if": (
        "[] > main\n  memory > m\n  seq > @\n    m.write TRUE\n    m.if 1 2\n",
        ("value", 1), 31),
    "cell-string-eq": (
        '[] > main\n  memory > m\n  seq > @\n    m.write "a"\n    m.eq "a"\n',
        ("value", True), 31),
    "if-one-arg": (
        "[] > main\n  5 > x\n  (x.less 1).if 1 > @\n",
        ("EvalFault", "arity: if expects 2 argument(s), got 1"), 19),
    "app-starts": (
        '[] > main\n  5 > x\n  (x.as-string).starts "5" > @\n',
        ("value", True), 18),
    "param-app-twice": (
        "[n] > f\n  n.add n > @\n[] > main\n  f (2.add 3) > @\n",
        ("value", 10), 28),
    "app-amp": (
        '[] > main\n  5 > x\n  (x.add 1).& > h\n  h.subtype-of "Int" > @\n',
        ("value", True), 27),
    "bool-app-eq": (
        "[] > main\n  5 > x\n  (x.less 9).eq TRUE > @\n",
        ("value", True), 22),
    "app-unknown-attr": (
        "[] > main\n  5 > x\n  (x.add 1).nope 2 > @\n",
        ("EvalFault", "attribute-not-found: add has no attribute 'nope'"), 16),
    "pointer-address-applied": (
        "[] > main\n  heap.malloc 8 > a\n  a.pointer 16 8 > first\n  first.address 1 > @\n",
        ("EvalFault", "not-applicable: a data value (16) cannot take arguments"), 28),
    "block-add": (
        "[v] > int64\n  v.as-int > @\n[] > main\n  heap.malloc 8 > a\n"
        "  (a.pointer 0 8).block 8 int64 > x\n  seq > @\n    x.write 41\n    x.add 1\n",
        ("value", 42), 71),
    "heap-unknown-attr": (
        "[] > main\n  heap.nope 1 > @\n",
        ("EvalFault", "attribute-not-found: heap has no attribute 'nope'"), 7),
    "cage-delegates": (
        "[] > point\n  [y] > shift\n    y.add 5 > @\n[] > main\n  cage > c\n"
        "  seq > @\n    c.write point\n    c.shift 1\n",
        ("value", 6), 39),
    "array-length": (
        "[] > main\n  array 1 2 3 > arr\n  (arr.length).add (arr.get 1) > @\n",
        ("value", 5), 31),
    "goto-token-forward": (
        "[] > main\n  goto > @\n    [g]\n      g.forward 1 > @\n",
        ("value", 1), 21),
    "add-a-jump": (
        "[] > main\n  goto > @\n    [g]\n      1.add (g.forward 5) > @\n",
        ("value", 5), 28),
    "atom-app-applied": (
        "[] > main\n  (5.add 1) 2 > @\n",
        ("EvalFault", "not-applicable: a data value (6) cannot take arguments"), 14),
    "native-amp": (
        "[] > main\n  heap.& > h\n  h.nope > @\n",
        ("EvalFault", "attribute-not-found: home has no attribute 'nope'"), 10),
    "snapshot-dataized-applied": (
        "[y] > inc\n  1.add y > @\n[] > main\n  inc' > f\n  5' > five\n"
        "  seq > @\n    f.<\n    five.<\n    f five\n",
        ("value", 6), 40),
    # The cold paths of the resolver, the special names, the home walk and
    # an atom's argument read, recorded before they were written plainly.
    "cage-datum-argument": (
        '[] > main\n  cage > c\n  seq > @\n    c.write "hi"\n    stdout c\n',
        ("value", True), 27),
    "allocation-argument": (
        "[] > main\n  heap.malloc 8 > a\n  1.add a > @\n",
        ("value", 1), 22),
    "cage-forwards-amp": (
        '[] > main\n  cage > c\n  seq > @\n    c.write 5\n    c.&.subtype-of "Int"\n',
        ("value", True), 34),
    "decoratee-heap": (
        "[] > w\n  heap > @\n[] > main\n  (w.malloc 8).pointer 0 8 > @\n",
        ("value", 0), 26),
    "decoratee-five": (
        "[] > five\n  5 > @\n[] > main\n  five.add 1 > @\n",
        ("value", 6), 16),
    "decoration-loop": (
        "[] > a\n  b > @\n[] > b\n  a > @\n[] > main\n  a.x > @\n",
        ("EvalFault", "circular-reduction: decoration of a loops back on itself"), 12),
    "bare-decoratee-forcing": (
        "[] > outer\n  7 > @\n  [] > inner\n    @.add 1 > @\n[] > main\n  outer.inner > @\n",
        ("value", 8), 20),
    "bare-decoratee-running": (
        "[] > outer\n  7 > @\n  [] > inner\n    seq > @\n      @.add 1\n[] > main\n  outer.inner > @\n",
        ("value", 8), 26),
    "bare-decoratee-reducing": (
        "[] > outer\n  7 > @\n  [] > inner\n    [] > @\n      @.add 1 > @\n[] > main\n"
        "  outer.inner > @\n",
        ("value", 8), 22),
    "parent-of-root": (
        "[] > main\n  ^.^ > @\n",
        ("EvalFault", "no-parent: Q has no enclosing object"), 6),
    "snapshot-unanchored": (
        "[] > main\n  5' > f\n  f.add 1 > @\n",
        ("EvalFault", "snapshot-unanchored: snapshot used before its .< anchor"), 8),
    # A native hook that passes an attribute on to what leads back to it: an
    # object decorated by its own home view, a cage that holds itself. Asked
    # for another attribute, it passes that on as before.
    "home-decorates-itself": (
        "[x] > f\n  & > @\n[] > main\n  (f 6).as-string > @\n",
        ("EvalFault", "circular-reduction: home loops back on itself"), 13),
    "cage-holds-itself": (
        "[] > main\n  cage > c\n  seq > @\n    c.write c\n    c.foo\n",
        ("EvalFault", "circular-reduction: cage loops back on itself"), 22),
    "cage-holds-itself-op": (
        "[] > main\n  cage > c\n  seq > @\n    c.write c\n    c.add 1\n",
        ("EvalFault", "circular-reduction: cage loops back on itself"), 23),
    "cage-applied-holds-itself": (
        "[] > main\n  cage > c\n  seq > @\n    c.write c\n    c 1\n",
        ("EvalFault", "circular-reduction: cage loops back on itself"), 22),
    # a cage asked for its datum when it holds itself, or a cage that holds it
    "cage-datum-holds-itself": (
        "[] > main\n  cage > c\n  seq > @\n    c.write c\n    stdout c\n",
        ("EvalFault", "circular-reduction: cage loops back on itself"), 26),
    "cages-hold-each-other": (
        "[] > main\n  cage > a\n  cage > b\n  seq > @\n    a.write b\n    b.write a\n    stdout a\n",
        ("EvalFault", "circular-reduction: cage loops back on itself"), 37),
    # a cage whose content rewrites the cage and hands it back is read again,
    # and then holds a datum
    "cage-rewritten-while-read": (
        "[] > main\n  cage > c\n  seq > @\n    c.write (seq (c.write 5) c)\n    stdout c\n",
        ("value", True), 43),
    "home-asked-for-another-name": (
        "[] > main\n  & > h\n  h.bar > foo\n  5 > bar\n  h.foo > @\n",
        ("value", 5), 14),
    "cage-asked-for-another-name": (
        "[] > main\n  cage > c\n  [] > x\n    c.bar > foo\n    5 > bar\n  seq > @\n"
        "    c.write x\n    c.foo\n",
        ("value", 5), 30),
}


@pytest.mark.parametrize("name", sorted(GUARD_MISSES))
def test_guard_miss_matches_the_traced_run(name):
    text, outcome, steps = GUARD_MISSES[name]
    untraced = _outcome(text, name + ".phi", 1000, trace=False)
    assert untraced[:2] == (outcome, steps)
    assert untraced == _outcome(text, name + ".phi", 1000, trace=True)


@pytest.mark.parametrize("limit", [None, 6000])
@pytest.mark.parametrize("name", ["home-decorates-itself", "cage-holds-itself", "cage-holds-itself-op",
                                  "cage-datum-holds-itself", "cages-hold-each-other"])
def test_self_forwarding_faults_whatever_the_recursion_limit(name, limit):
    # the fault and its step do not move with the caller's recursion limit
    text, outcome, steps = GUARD_MISSES[name]
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(limit or before)
    try:
        assert _outcome(text, name + ".phi", 1000, trace=False)[:2] == (outcome, steps)
    finally:
        sys.setrecursionlimit(before)


# SHA-256 per cold-path case of GUARD_MISSES over (budget, outcome, steps,
# stdout) at every budget from 1 to one past its step count, hashed as
# SWEEP_SHA256 is. Recorded before those paths were written plainly.
COLD_SWEEP_SHA256 = {
    "allocation-argument": "ce03ab74b469939fa1408b28a789366d54e06c8993ea516a11af6b218d6d698d",
    "bare-decoratee-forcing": "812adc94d96fe89f2f282634b5745b4b5c0ecaee483feba7b6f34b1971495299",
    "bare-decoratee-reducing": "a3709eb37cbb0514dbe803e8dd1d936524f2dfff49df6d58f2c5cfddba5ef87d",
    "bare-decoratee-running": "335937bbf55782eb9636e7c3864a46e5c3221be02ded0186297e11f1d9abbab5",
    "cage-datum-argument": "5a6183e9bb717b9b9fa18660e3187b95ac8e08e044573b837c30c34419e7ad6d",
    "cage-forwards-amp": "3648823053a07d2a36042174ba10825a9849eaec4f366e1ef186d7a74046a667",
    "decoratee-five": "031ad57f2ada3543854272e67f90ead9db362a5fdfac87da51ca624db6143342",
    "decoratee-heap": "f9d8a8d3813ddf5a7f9d2679d5a094a4f43d9e8c5d49051eb046b5992a5a4145",
    "decoration-loop": "fec3b4b4b0de706fe28f419bf53155e523e1d85afc749e6ad3fb65b880a8e407",
    "parent-of-root": "31446f987bebe5b01f07bb7ce2f6d8554c12791860dbf4159d529c10197cadc2",
    "snapshot-unanchored": "109b7419766360a5ab25bcfe949dd89058a6b387a85143ee8bfaaf57f5cd0c68",
}


@pytest.mark.parametrize("name", sorted(COLD_SWEEP_SHA256))
def test_cold_path_budget_sweep(name):
    text, _outcome_at_1000, steps = GUARD_MISSES[name]
    budgets = range(1, steps + 2)
    outcomes = [_outcome(text, name + ".phi", budget, trace=False) for budget in budgets]
    assert _digest(budgets, outcomes) == COLD_SWEEP_SHA256[name]


# Atom arguments of every shape an atom dataizes: a literal, a name, an unrun
# `r.op x` (also through a written cell), a written memory cell, a closure
# that decorates one, and last an unwritten cell, which faults.
ARGUMENT_SHAPES = """\
[] > main
  memory > m
  memory > u
  5 > n
  [] > deco
    m > @
  seq > @
    stdout "a"
    m.write 3
    n.add n
    n.add (n.add 1)
    n.add (m.add 1)
    1.add m
    1.add deco
    stdout (m.add 2).as-string
    1.add u
"""
# SHA-256 over its outcomes at every budget from 0 to one past its step
# count, hashed as SWEEP_SHA256 is, recorded while atom arguments were
# still read through their own inline paths.
ARGUMENT_SHAPES_STEPS = 129
ARGUMENT_SHAPES_SHA256 = "260b49c850c799a49239df1655fbdaf7655d6a5c0c49a09d35bf73772d147069"


def test_argument_shapes_budget_sweep():
    budgets = range(0, ARGUMENT_SHAPES_STEPS + 2)
    untraced = [_outcome(ARGUMENT_SHAPES, "args.phi", budget, trace=False) for budget in budgets]
    assert untraced[-1] == (("EvalFault", "memory-unset: memory read before the first write"),
                            ARGUMENT_SHAPES_STEPS, b"a5")
    assert _digest(budgets, untraced) == ARGUMENT_SHAPES_SHA256
    assert [_outcome(ARGUMENT_SHAPES, "args.phi", budget, trace=True) for budget in budgets] == untraced


# A closure reduces its decoration once: dataizing the same `hi` again reads
# the reduced normal form it cached, so `stdout` runs once.
HI = '[] > hi\n  stdout "hi" > @\n'
REDUCED_TWICE = {
    "hi-bound-twice": (HI + "[] > main\n  seq > @\n    hi > x\n    x\n", 23),
    "hi-named-twice": (HI + "[] > main\n  seq > @\n    hi\n    hi\n", 22),
}


@pytest.mark.parametrize("name", sorted(REDUCED_TWICE))
def test_reduced_decoration_is_cached(name):
    text, steps = REDUCED_TWICE[name]
    for trace in (False, True):
        assert _outcome(text, name + ".phi", 1000, trace) == (("value", True), steps, b"hi")


# An object whose first dataization escaped by a goto or try signal caught
# outside it is dataized again. Its atom applications that raised kept their
# inputs, so they run again, now taking the other branch of `if m`: `x` is
# read by an atom's argument (goto) and reduced as a decoratee (try).
RERUN = """\
[] > main
  memory > m
  cage > c
  {x}
  seq > @
    m.write TRUE
    {escape}
    m.write FALSE
    {again}
"""
RERUN_AFTER_SIGNAL = {
    "goto-forward": (
        RERUN.format(
            x="seq > x\n    stdout \"x\"\n    if m (c.forward 5) 7",
            escape="goto\n      [g]\n        seq > @\n          c.write g\n          1.add x",
            again="1.add x"),
        ("value", 8), 112, b"x"),
    "try-thrown": (
        RERUN.format(
            x="[] > x\n    seq > @\n      stdout \"x\"\n      if m (c \"boom\") 7",
            escape="stdout\n      try\n        [t]\n          seq > @\n            c.write t\n"
                   "            x\n        [e]\n          e > @\n        TRUE",
            again="x"),
        ("value", 7), 110, b"xboom"),
}


@pytest.mark.parametrize("name", sorted(RERUN_AFTER_SIGNAL))
def test_rerun_after_a_caught_signal(name):
    text, outcome, steps, out = RERUN_AFTER_SIGNAL[name]
    for trace in (False, True):
        assert _outcome(text, name + ".phi", 1000, trace) == (outcome, steps, out)
