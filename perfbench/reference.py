"""The host's current speed, from a fixed pure-Python reference kernel.

On a shared host the CPU itself runs faster or slower from one minute to
the next (other tenants on the same cores and caches), and CPU time moves
with it: one op list ran 35% slower in CPU time while a second process
loaded the other CPU, and two sets of ten runs a few minutes apart differed
by 27% in median. The benchmark therefore times a fixed kernel right after
each op and scales the op's time by the kernel's reference time over its
time now. The kernel is plain Python that never touches philang, so a
change to philang moves op times and leaves the kernel alone; a slower host
moves both, and the ratio stays. In the run above, scaled times moved by 3%
where raw ones moved by 35%.

The kernel evaluates a fixed expression tree the way a tree-walking
interpreter does: recursive calls, attribute reads, dict lookups and copies,
and small integers.
"""

import random
import time

# CPU time of one chunk on the reference host (Intel Xeon, Sapphire Rapids,
# 2 shared vCPUs, Python 3.11.7) at its median speed, so scaled times read
# as that host's typical times
REFERENCE_CHUNK_S = 0.00038
CHUNK_EVALS = 3


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b


def _build(rng, depth):
    if depth == 0:
        if rng.random() < 0.5:
            return _Node("var", rng.choice("xyz"), None)
        return _Node("lit", rng.randrange(1, 9), None)
    op = rng.choice(("add", "mul", "sub", "let"))
    return _Node(op, _build(rng, depth - 1), _build(rng, depth - 1))


def _evaluate(node, env):
    op = node.op
    if op == "lit":
        return node.a
    if op == "var":
        return env[node.a]
    if op == "let":
        inner = dict(env)
        inner["x"] = _evaluate(node.a, env) % 97
        return _evaluate(node.b, inner)
    a, b = _evaluate(node.a, env), _evaluate(node.b, env)
    if op == "add":
        return (a + b) % 1000003
    if op == "mul":
        return (a * b) % 1000003
    return (a - b) % 1000003


_TREE = _build(random.Random(0), 8)


def _chunk():
    for i in range(CHUNK_EVALS):
        _evaluate(_TREE, {"x": i, "y": 2, "z": 3})


def speed_factor(min_s):
    """Run whole kernel chunks for at least `min_s` of CPU time (at least
    one) and return the reference time over the time they took: a time
    measured just before, multiplied by this, reads as on the reference
    host."""
    chunks = 0
    t0 = time.thread_time()
    while True:
        _chunk()
        chunks += 1
        spent = time.thread_time() - t0
        if spent >= min_s and spent > 0:
            return REFERENCE_CHUNK_S * chunks / spent
