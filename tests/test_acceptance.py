"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import random
import subprocess
import sys
import time

from importlib import resources

from philang import corpus
from philang.errors import BudgetExceeded
from philang.heap import (
    HeapStore,
    PointerValue,
    block_read_bytes,
    block_write,
    decode_int,
    decode_string,
    make_block,
    pointer_add,
)
from philang.runtime import run_text
from philang.syntax import _literal_src

from conftest import Probe


def _report(criterion, detail):
    print(f"ACCEPTANCE PASS: {criterion} — {detail}")


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "philang.cli", *args], capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def _corpus_file(entry_id, name="program.phi"):
    return str(resources.files("philang") / "corpus" / entry_id / name)


def test_criterion_1_corpus_fidelity():
    pinned = {
        "goto-backward": b"Finished!",
        "destructors": b"AliveDead",
        "inheritance-prototype": b"4.2",
        "pointers-stack": b"7",
        "inheritance-multiple": b"Bark!listen!",
    }
    for entry_id, golden in pinned.items():
        out, _value = corpus.run_entry(entry_id)
        assert out == golden, (entry_id, out, golden)

    start = time.monotonic()
    for entry in corpus.list_entries():
        ok, reason = corpus.check_entry(entry.id)
        assert ok, f"{entry.id}: {reason}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"corpus took {elapsed:.2f}s (budget 5s)"
    _report(
        "criterion 1 (corpus fidelity)",
        f"{len(corpus.list_entries())} entries byte-exact in {elapsed:.2f}s",
    )


def test_criterion_2_derived_oracles():
    expected = {
        "exceptions": b"Error: error!The price: 110",
        "exceptions-many": b"inner: IOException\nouter: RuntimeException\n",
        "generators": b"1\n1\n2\n4\n8\n16\n32\n64\n128\n",
        "anonymous-functions": b"# one\n# three\n",
        "pointers-code": b"49",
    }
    for entry_id, golden in expected.items():
        out, _value = corpus.run_entry(entry_id)
        assert out == golden, (entry_id, out, golden)
    _report("criterion 2 (derived oracles)", f"{len(expected)} goldens byte-exact")


def test_criterion_3_property_suites():
    rng = random.Random(20260811)
    n = 200

    # memory and heap roundtrips: random int64s and strings within view length
    for _ in range(n):
        v = rng.randint(-(1 << 63), (1 << 63) - 1)
        src = f"[] > f\n  memory > m\n  seq > @\n    m.write {v}\n    m\nf\n"
        _out, _err, value = run_text(src)
        assert value == v
        store = HeapStore(64)
        view = make_block(PointerValue(store, store.malloc(8).base, 8), 8)
        block_write(view, v)
        assert decode_int(block_read_bytes(view)) == v
    for _ in range(n):
        s = "".join(rng.choice("abcdef #%ü\n") for _ in range(rng.randint(0, 30)))
        src = f"[] > f\n  memory > m\n  seq > @\n    m.write {_literal_src(s)}\n    m\nf\n"
        _out, _err, value = run_text(src)
        assert value == s
        length = max(1, len(s.encode()) + rng.randint(0, 8))
        store = HeapStore(4096)
        view = make_block(PointerValue(store, store.malloc(length).base, length), length)
        block_write(view, s)
        assert decode_string(block_read_bytes(view)) == s

    # pointer algebra: inverse and stride scaling
    for _ in range(n):
        address = rng.randint(0, 1 << 40)
        stride = rng.randint(1, 4096)
        k = rng.randint(0, 1 << 16)
        store = HeapStore(64)
        p = PointerValue(store, address, stride)
        shifted = pointer_add(p, k)
        assert shifted.address - p.address == k * stride
        assert pointer_add(shifted, -k).address == p.address

    # goto-forward payload identity; dead code never evaluated
    for _ in range(n):
        v = rng.randint(-(1 << 40), 1 << 40)
        crash = Probe()
        src = (
            "[] > main\n  goto > @\n    [g]\n      seq > @\n"
            f"        g.forward {v}\n        crash.bump\n"
        )
        _out, _err, value = run_text(src, extra_builtins={"crash": crash})
        assert value == v and crash.count == 0

    # try/finally on both paths; nested routing for random depth <= 4
    from test_properties import _nested_try_src

    for _ in range(n):
        throws = rng.random() < 0.5
        fin = Probe()
        body = 't "x" > @' if throws else "1 > @"
        src = (
            "[] > main\n  try > @\n    [t]\n      "
            + body
            + "\n    [e]\n      2 > @\n    fin.bump\n"
        )
        _out, _err, value = run_text(src, extra_builtins={"fin": fin})
        assert fin.count == 1 and value == (2 if throws else 1)

        depth = rng.randint(1, 4)
        target = rng.randint(0, depth - 1)
        out, _err, _value = run_text(_nested_try_src(depth, target))
        assert out == f"c{target}".encode()

    # if single-branch; memoization forces once; corpus determinism
    for _ in range(n):
        cond = rng.random() < 0.5
        a, b = Probe(), Probe()
        lit = "TRUE" if cond else "FALSE"
        run_text(
            f"[] > main\n  if {lit} (a.bump) (b.bump) > @\n",
            extra_builtins={"a": a, "b": b},
        )
        assert (a.count, b.count) == ((1, 0) if cond else (0, 1))

        p = Probe()
        k = rng.randint(1, 6)
        steps = "\n".join("    x.add 0" for _ in range(k))
        run_text(
            f"[] > main\n  probe > x!\n  seq > @\n{steps}\n",
            extra_builtins={"probe": p},
        )
        assert p.count == 1

    for entry in corpus.list_entries():
        if entry.expect_budget_exhausted:
            continue
        first, _v1 = corpus.run_entry(entry.id)
        second, _v2 = corpus.run_entry(entry.id)
        assert first == second, entry.id

    _report("criterion 3 (property suites)", f"{n}+ randomized cases per family, zero failures")


def test_criterion_4_traceability():
    code, out, err = _cli(
        "run", _corpus_file("traceability", "src/main.c"), "--traceability", "--trace"
    )
    assert code == 0 and out == b"7"
    assert b"src/main.c:0-2" in err
    assert b"src/main.c:1-1" in err

    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        own = os.path.join(d, "own.phi")
        with open(own, "w") as fh:
            fh.write('[] > f\n  "mine" > source\n  42 > @\nf\n')
        code, _out, err = _cli("run", own, "--traceability")
        assert code == 0
        assert b"warning" in err and b"source" in err
    _report("criterion 4 (traceability)", "spans visible in trace; user source suppresses")


def test_criterion_5_guard_rails():
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:

        def write(name, text):
            path = os.path.join(d, name)
            with open(path, "w") as fh:
                fh.write(text)
            return path

        backward = write(
            "loop.phi", "[] > main\n  goto > @\n    [g]\n      g.backward > @\n"
        )
        code, _out, err = _cli("run", backward)
        assert code == 3 and b"budget" in err

        code, _out, err = _cli(
            "run", _corpus_file("goto-complex-divergent", "divergent.phi")
        )
        assert code == 3 and b"budget" in err

        diagnostics = {}
        cases = {
            "div.phi": "42.div 0\n",
            "mem.phi": "[] > f\n  memory > m\n  m.add 1 > @\nf\n",
            "free.phi": (
                "[] > f\n  seq > @\n"
                "    Q.org.eolang.gray.heap.malloc 8 > a\n"
                "    Q.org.eolang.gray.heap.free a\n"
                "    Q.org.eolang.gray.heap.free a\nf\n"
            ),
            "oob.phi": (
                "[] > f\n  seq > @\n"
                "    Q.org.eolang.gray.heap.malloc 8 > a\n"
                "    ((a.pointer 4 8).block 8 ([b] (b.as-int > @)))\nf.add 0\n"
            ),
        }
        for name, src in cases.items():
            code, _out, err = _cli("run", write(name, src))
            assert code == 1, (name, err)
            diagnostics[name] = err.split(b":", 2)[1] if b":" in err else err
        assert len(set(diagnostics.values())) == len(cases), diagnostics
    _report(
        "criterion 5 (guard rails)",
        "exit 3 for both divergent runs; four distinct exit-1 diagnostics",
    )
