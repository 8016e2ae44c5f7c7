"""The traced run: per-layer numbers for one workload.

Each traced op runs twice. The plain execution is timed with the
benchmark's own spans (CPU time) around its calls into philang: parse
(`parse_entries`), assemble (`Program()` minus parse) and run (`run()`).
It is also the op the oracle and the step ledger check. The profiled
execution repeats the op under cProfile, one profile for `Program()` and
one for `run()`, and self time and call counts are summed per source file
and so per layer. It must reproduce the plain execution's stdout, value
and step count. No interpreter method is wrapped: a Python wrapper adds
frames, and extra frames alone turn deep programs into `deep-recursion`.
"""

import ast
import cProfile
import gc
import os
import pstats
import statistics
import subprocess
import sys
import time

from harness import PACKAGE_DIR, ROOT, SRC, execute, op_clock

CLI_CHILDREN = 5
TRACE_ON_REPEATS = 5

# layer -> its source files in src/philang, for the layers whose self time
# is reported
LAYER_FILES = {
    "parser": ("parser.py", "syntax.py"),
    "core": ("core.py",),
    "atoms": ("atoms.py",),
    "heap": ("heap.py",),
}

PARSER_PHASES = {
    "parser.lex_ms": "_read_lines",
    "parser.forest_ms": "_build_forest",
    "parser.block_ms": "_parse_block",
    "parser.check_ms": "_check_formations",
}
CORE_CALLS = {
    "core.evaluate_calls": "Interpreter.evaluate",
    "core.resolve_calls": "Interpreter.soft_resolve",
    "core.apply_calls": "Interpreter.apply",
    "core.reduce_calls": "Interpreter.deep_reduce",
}
ATOM_CALLS = {
    "atoms.calls.seq": ("_run_seq",),
    "atoms.calls.if": ("_run_if3", "_run_if_bool"),
    "atoms.calls.while": ("_run_while",),
    "atoms.calls.goto": ("_run_goto",),
    "atoms.calls.memory-write": ("_run_memory_write",),
    "atoms.calls.arith": ("_run_arith.run",),
    "atoms.calls.block": ("_run_block",),
}
HEAP_ACCESS = ("HeapStore.read", "HeapStore.write")


def function_keys(path):
    """Qualified function name -> cProfile key (file, first line, name),
    read from the module's source so that nothing is imported to find it."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    keys = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                keys[qualname] = (path, first, child.name)
                walk(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return keys


class Profiled:
    """pstats of one profile, indexed for per-layer sums and lookups."""

    def __init__(self, profile, layers):
        self.stats = pstats.Stats(profile).stats if profile.getstats() else {}
        self.layer_of, self.keys = {}, {}
        for layer in layers:
            for name in LAYER_FILES[layer]:
                path = os.path.join(PACKAGE_DIR, name)
                self.layer_of[path] = layer
                self.keys.update(function_keys(path))

    def self_s(self, layer):
        return sum(v[2] for k, v in self.stats.items() if self.layer_of.get(k[0]) == layer)

    def entry(self, qualname):
        key = self.keys.get(qualname)
        return self.stats.get(key) if key is not None else None

    def calls(self, qualname):
        e = self.entry(qualname)
        return e[1] if e else 0

    def cum_s(self, qualname):
        e = self.entry(qualname)
        return e[3] if e else 0.0

    def calls_from(self, callee, caller):
        e = self.entry(callee)
        key = self.keys.get(caller)
        if not e or key not in e[4]:
            return 0
        return e[4][key][1]


def trace_on_ratio(lib, ops):
    """Op time of `ops` with `Program(trace=True)` over the same ops with
    tracing off, median of alternating repeats. Tracing must not change
    stdout. Returns (ratio, stdout_unchanged)."""
    ratios, same = [], True
    for rep in range(TRACE_ON_REPEATS):
        order = (False, True) if rep % 2 == 0 else (True, False)
        runs = {trace: [execute(lib, op, trace=trace) for op in ops] for trace in order}
        ratios.append(sum(o.op_s for o in runs[True]) / sum(o.op_s for o in runs[False]))
        same = same and [o.out for o in runs[True]] == [o.out for o in runs[False]]
    return statistics.median(ratios), same


def cli_run_ms(lib, rng):
    """`python -m philang.cli run <entry>` on seeded corpus entries, one
    child at a time; each must exit 0 with the golden on stdout.
    Returns (median wall in ms, all children correct)."""
    entries = [e for e in lib.corpus.list_entries() if not e.expect_budget_exhausted]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    walls, ok = [], True
    for entry in rng.sample(entries, CLI_CHILDREN):
        path = os.path.join(PACKAGE_DIR, "corpus", entry.id, entry.program)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "philang.cli", "run", path],
                              cwd=ROOT, env=env, capture_output=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        ok = ok and proc.returncode == 0 and proc.stdout == lib.corpus.expected_stdout(entry.id)
    return statistics.median(walls) * 1e3, ok


def traced_run(lib, ops, small, seconds, rng, ledger):
    """Per-layer metrics over as many traced ops as fit in `seconds`
    (at least one). Returns (metrics, (ops, failed ops), detail)."""
    started = time.perf_counter()
    trace_on, trace_stdout_same = trace_on_ratio(lib, small)
    cli_ms, cli_ok = cli_run_ms(lib, rng)

    build_prof = cProfile.Profile(builtins=False)
    run_prof = cProfile.Profile(builtins=False)
    n = failed = unfaithful = lines = steps = history = 0
    parse_s = build_s = run_s = plain_s = profiled_s = 0.0
    deadline = started + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        i += 1
        # the last op's cyclic garbage is collected here, not inside a span
        gc.collect()
        t0 = op_clock()
        try:
            lib.parser.parse_entries(op.text, op.file)
        except lib.PhilangError:
            pass
        parse_s += op_clock() - t0
        plain = execute(lib, op)
        profiled = execute(lib, op, build_prof, run_prof)
        n += 1
        if not op.check(plain.out, plain.value, plain.fault):
            failed += 1
        ledger.record(op.id, plain.steps)
        if profiled.result != plain.result:
            unfaithful += 1
        lines += len(op.text.splitlines())
        steps += plain.steps
        history += plain.history
        build_s += plain.build_s
        run_s += plain.run_s
        plain_s += plain.op_s
        profiled_s += profiled.op_s
        if time.perf_counter() >= deadline:
            break

    build = Profiled(build_prof, ("parser",))
    run = Profiled(run_prof, ("core", "atoms", "heap"))
    per_op_ms = 1e3 / n
    metrics = {
        "parser.parse_ms": (parse_s * per_op_ms, "ms"),
        "parser.self_ms": (build.self_s("parser") * per_op_ms, "ms"),
    }
    for name, fn in PARSER_PHASES.items():
        metrics[name] = (build.cum_s(fn) * per_op_ms, "ms")
    metrics["parser.lines_per_s"] = (lines / parse_s, "lines/s")
    metrics["runtime.assemble_ms"] = ((build_s - parse_s) * per_op_ms, "ms")
    metrics["runtime.run_ms"] = (run_s * per_op_ms, "ms")
    metrics["core.self_ms"] = (run.self_s("core") * per_op_ms, "ms")
    metrics["core.steps"] = (steps / n, "count")
    for name, fn in CORE_CALLS.items():
        metrics[name] = (run.calls(fn) / n, "count")
    cached_calls = run.calls("Interpreter.run_cached")
    misses = run.calls_from("Interpreter.trace_step", "Interpreter.run_cached")
    metrics["core.cache_hit_ratio"] = (
        (cached_calls - misses) / cached_calls if cached_calls else 0.0, "ratio")
    metrics["core.trace_on_ratio"] = (trace_on, "ratio")
    metrics["atoms.self_ms"] = (run.self_s("atoms") * per_op_ms, "ms")
    for name, fns in ATOM_CALLS.items():
        metrics[name] = (sum(run.calls(fn) for fn in fns) / n, "count")
    malloc_calls = run.calls("HeapStore.malloc")
    access_calls = sum(run.calls(fn) for fn in HEAP_ACCESS)
    access_s = sum(run.cum_s(fn) for fn in HEAP_ACCESS)
    metrics["heap.self_ms"] = (run.self_s("heap") * per_op_ms, "ms")
    metrics["heap.malloc_calls"] = (malloc_calls / n, "count")
    metrics["heap.malloc_us"] = (
        run.cum_s("HeapStore.malloc") / malloc_calls * 1e6 if malloc_calls else 0.0, "us")
    metrics["heap.access_calls"] = (access_calls / n, "count")
    metrics["heap.access_us"] = (access_s / access_calls * 1e6 if access_calls else 0.0, "us")
    metrics["heap.history_len"] = (history / n, "count")
    metrics["cli.run_ms_p50"] = (cli_ms, "ms")
    metrics["trace_overhead"] = (profiled_s / plain_s, "ratio")

    self_ms = {layer: metrics[layer + ".self_ms"][0] for layer in ("parser", "core", "atoms", "heap")}
    detail = {
        "traced_ops": n,
        "unfaithful_ops": unfaithful,
        "trace_on_stdout_unchanged": trace_stdout_same,
        "cli_correct": cli_ok,
        "largest_self_layer": max(self_ms, key=self_ms.get),
        "self_share": {layer: ms / sum(self_ms.values()) for layer, ms in self_ms.items()},
        "span_share": {"parse": parse_s / plain_s, "assemble": (build_s - parse_s) / plain_s,
                       "run": run_s / plain_s},
    }
    return metrics, (n, failed), detail
