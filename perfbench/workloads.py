"""Seeded op lists for the four workloads, each op with an oracle that does
not come from the interpreter under test.

An op is one program text. The benchmark hands the text to
`Program(...)` and dataizes it with `Program.run()`; nothing else about the
op reaches the interpreter. Oracles are the corpus goldens, the divergent
entry's budget outcome, and closed forms computed here in plain Python.
"""

import random

UNCHECKED = object()

# Step budgets are the benchmark's own, so a change of the library default
# does not change the ops. The divergent corpus entry runs under 500 steps,
# so it costs about as much as one terminating entry and the mix stays
# parse-heavy; it prints a dozen `A`s before the budget ends.
DIVERGENT_BUDGET = 500
DEFAULT_BUDGET = 1_000_000


class Op:
    """One program plus what it must produce.

    `stdout` is the exact expected output, or None when only `stdout_only`
    (a set of allowed bytes) is checked. `fault` names the expected error
    class, or None when the run must succeed.
    """

    __slots__ = ("id", "text", "file", "max_steps", "stdout", "stdout_only", "value", "fault")

    def __init__(self, id, text, file, stdout=None, stdout_only=None, value=UNCHECKED,
                 fault=None, max_steps=DEFAULT_BUDGET):
        self.id = id
        self.text = text
        self.file = file
        self.stdout = stdout
        self.stdout_only = stdout_only
        self.value = value
        self.fault = fault
        self.max_steps = max_steps

    def check(self, out, value, fault):
        """True when (stdout, value, fault name) is what the oracle expects."""
        if fault != self.fault:
            return False
        if self.stdout is not None and out != self.stdout:
            return False
        if self.stdout_only is not None and not (out and set(out) <= self.stdout_only):
            return False
        if self.fault is None and self.value is not UNCHECKED:
            return type(value) is type(self.value) and value == self.value
        return True


def _stratified(rng, lo, hi, count):
    """`count` integers spread evenly over [lo, hi] with seeded jitter, in
    seeded order, so every seed gets nearly the same total work."""
    values = [lo + int((hi - lo) * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(values)
    return values


# -- corpus -------------------------------------------------------------------


def corpus_ops(lib, rng):
    """All bundled entries, goldens byte for byte, in seeded order."""
    ops = []
    for entry in lib.corpus.list_entries():
        text = lib.corpus.program_text(entry.id)
        if entry.expect_budget_exhausted:
            op = Op(entry.id, text, entry.program, stdout_only=frozenset(b"A"),
                    fault="BudgetExceeded", max_steps=DIVERGENT_BUDGET)
        else:
            op = Op(entry.id, text, entry.program, stdout=lib.corpus.expected_stdout(entry.id))
        ops.append(op)
    rng.shuffle(ops)
    return ops


def corpus_small(lib):
    return corpus_ops(lib, random.Random(0))


# -- loop ---------------------------------------------------------------------


def loop_text(n):
    """A `while`/memory counter loop and a `goto`/`g.backward` loop, each n
    iterations: acc = sum(i) + sum(2j) = 3n(n-1)/2."""
    return f"""\
[] > main
  memory > i
  memory > j
  memory > acc
  seq > @
    i.write 0
    j.write 0
    acc.write 0
    while.
      i.less {n}
      [k]
        seq > @
          acc.write (acc.add i)
          i.write (i.add 1)
    goto
      [g]
        seq > @
          if.
            j.less {n}
            seq
              acc.write (acc.add (j.mul 2))
              j.write (j.add 1)
              g.backward
            TRUE
    stdout (acc.as-string)
    acc
"""


def _loop_op(index, n):
    want = 3 * n * (n - 1) // 2
    return Op(f"loop-{index:02d}-n{n}", loop_text(n), "loop.phi",
              stdout=str(want).encode(), value=want)


def loop_ops(lib, rng):
    return [_loop_op(i, n) for i, n in enumerate(_stratified(rng, 60, 140, 16))]


def loop_small(lib):
    return [_loop_op(0, 20)]


# -- recursion ----------------------------------------------------------------


def recursion_text(n, x, d):
    """Recursive `sum n` (nesting through `n.add (sum ...)`) and a
    decoration chain `deco x d` that is d objects deep, each decorating the
    next: sum = n(n+1)/2, deco = x + d."""
    return f"""\
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
    stdout (sprintf "%d %d\\n" (sum {n}) (deco {x} {d}))
    (sum {n}).add (deco {x} {d})
"""


def _recursion_op(index, n, x, d):
    total, chain = n * (n + 1) // 2, x + d
    return Op(f"recursion-{index:02d}-n{n}-d{d}", recursion_text(n, x, d), "recursion.phi",
              stdout=f"{total} {chain}\n".encode(), value=total + chain)


# Depths stay at or below 300: the interpreter stops near 390 today.
def recursion_ops(lib, rng):
    ns = _stratified(rng, 150, 300, 16)
    ds = _stratified(rng, 150, 300, 16)
    return [_recursion_op(i, n, rng.randrange(1000), d) for i, (n, d) in enumerate(zip(ns, ds))]


def recursion_small(lib):
    return [_recursion_op(0, 20, 7, 20)]


# -- heap ---------------------------------------------------------------------


def heap_text(n, coeffs):
    """n iterations of malloc a, malloc b, write both, read both into acc,
    free a. Block sizes grow with the iteration, so no freed block fits a
    later request: the live set, the freed history and the list of holes
    all grow by one per iteration."""
    a, b, c, d = coeffs
    return f"""\
[v] > int64
  v.as-int > @
[] > main
  memory > i
  memory > acc
  seq > @
    i.write 0
    acc.write 0
    while.
      i.less {n}
      [k]
        seq > @
          heap.malloc (k.add 8) > first
          heap.malloc (k.add 8) > second
          (first.pointer 0 8).block 8 int64 > x
          (second.pointer 0 8).block 8 int64 > y
          x.write ((k.mul {a}).add {b})
          y.write ((k.mul {c}).add {d})
          acc.write ((acc.add x).add y)
          heap.free first
          i.write (k.add 1)
    stdout (acc.as-string)
    acc
"""


def _heap_op(index, n, coeffs):
    a, b, c, d = coeffs
    want = sum(k * a + b + k * c + d for k in range(n))
    return Op(f"heap-{index:02d}-n{n}", heap_text(n, coeffs), "heap.phi",
              stdout=str(want).encode(), value=want)


def heap_ops(lib, rng):
    return [
        _heap_op(i, n, tuple(rng.randrange(1, 1000) for _ in range(4)))
        for i, n in enumerate(_stratified(rng, 600, 700, 6))
    ]


def heap_small(lib):
    return [_heap_op(0, 30, (3, 5, 7, 11))]


# name -> (op list from a seed, small ops for the warm-up and the trace sample)
WORKLOADS = {
    "corpus": (corpus_ops, corpus_small),
    "loop": (loop_ops, loop_small),
    "recursion": (recursion_ops, recursion_small),
    "heap": (heap_ops, heap_small),
}
