"""philang benchmark: one process, one thread, a closed loop of programs.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Each op is one program: `Program(text)` parses and assembles it, then
`Program.run()` dataizes it, and the next op starts when this one ends.
Every op is checked against an oracle that does not come from the
interpreter (see workloads.py). The last line of stdout is one JSON object:
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from layers.py. The line before it holds details: the step ledger
(`interp.steps` per op id), the tail percentile and the op count.

Exits 2 without a result when the checkout has no philang sources.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from harness import StepLedger, execute, load_philang
from reference import speed_factor
from workloads import WORKLOADS

SETUP_PROCESSES = 7
# op_ms_tail is the highest percentile that still has this many ops beyond it
TAIL_BEYOND = 10
# a run stops after the pass that crosses this, even with fewer ops than its
# tail needs
MEASURE_CAP_S = 120
# runs of each op, back to back; the fastest is its time
REPEATS = 2
# after each op the reference kernel runs for this share of the op's time
# but at least REFERENCE_MIN_S, and after each set-up process for
# SETUP_REFERENCE_S
REFERENCE_SHARE = 0.25
REFERENCE_MIN_S = 0.001
SETUP_REFERENCE_S = 0.1


def set_up(workload, seed):
    """Import philang, generate the op list and warm up on the small ops.
    Returns (lib, ops, small ops, warm-up correct)."""
    make_ops, make_small = WORKLOADS[workload]
    lib = load_philang()
    ops = make_ops(lib, random.Random(seed))
    small = make_small(lib)
    warm_ok = True
    for op in small:
        o = execute(lib, op)
        warm_ok = warm_ok and op.check(o.out, o.value, o.fault)
    # what is alive now (modules, op texts) stays alive; frozen, it is not
    # traversed again by the collection between ops
    gc.collect()
    gc.freeze()
    return lib, ops, small, warm_ok


def setup_seconds(workload, seed):
    """Time from the start of a fresh workload process to the moment it
    would time its first op, median over SETUP_PROCESSES processes started
    one at a time, each scaled to the reference host by the kernel run
    right after it (see reference.py). Returns (seconds, every process got
    there)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    walls, ok = [], True
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            wall = time.perf_counter() - t0
        ok = ok and ready == "ready\n" and child.returncode == 0
        walls.append(wall * speed_factor(SETUP_REFERENCE_S))
    return statistics.median(walls), ok


def measure(lib, ops, seconds, ledger):
    """Closed loop over whole passes of the op list for `seconds`, and for
    at least TAIL_BEYOND + 1 timed ops.

    Op time is CPU time (see harness.op_clock). Each op runs REPEATS times
    back to back, every run checked, and the least time counts, so a burst
    of the host must hit every run to show. That time is scaled to the
    reference host by the reference kernel run right after the op (see
    reference.py), so that the host's drift in speed cancels. Throughput,
    the median and steps/s come from each op's median time, per pass over
    the fixed op list: a burst moves a median less than a sum. Whole passes
    give each op the same weight. The tail is over every op timed.

    Every op starts from a collected heap, as a fresh `philang run` process
    does: the cyclic garbage an op leaves behind is collected after it,
    outside its timing. Collections that happen while the op runs count.
    """
    min_ops = TAIL_BEYOND + 1
    times, runs = defaultdict(list), defaultdict(list)
    factors = []
    failed = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            tries = []
            for _ in range(REPEATS):
                o = execute(lib, op)
                gc.collect()
                if not op.check(o.out, o.value, o.fault):
                    failed += 1
                ledger.record(op.id, o.steps)
                tries.append(o)
            o = min(tries, key=lambda o: o.op_s)
            f = speed_factor(max(REFERENCE_SHARE * o.op_s, REFERENCE_MIN_S))
            factors.append(f)
            times[op.id].append(o.op_s * f)
            runs[op.id].append(o.run_s * f)
        elapsed = time.perf_counter() - start
        timed = sum(len(t) for t in times.values())
        if (elapsed >= seconds and timed >= min_ops) or elapsed >= MEASURE_CAP_S:
            break
    op_s = [statistics.median(times[op.id]) for op in ops]
    pass_run_s = sum(statistics.median(runs[op.id]) for op in ops)
    every = sorted(t for ts in times.values() for t in ts)
    rank = len(every) - TAIL_BEYOND - 1
    metrics = {
        "ops_per_s": (len(ops) / sum(op_s), "1/s"),
        "op_ms_p50": (statistics.median(op_s) * 1e3, "ms"),
        "op_ms_tail": (every[rank] * 1e3, "ms"),
        "steps_per_s": (sum(ledger.steps[op.id] for op in ops) / pass_run_s, "1/s"),
    }
    detail = {
        "tail_percentile": 100 * (rank + 1) / len(every),
        "tail_ops_beyond": TAIL_BEYOND,
        "ops_timed": len(every),
        "ops_per_s_raw": len(every) * REPEATS / elapsed,
        "host_speed_p50": 1 / statistics.median(factors),
    }
    return metrics, (len(every) * REPEATS, failed), detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up as a run does, print 'ready' and exit (times setup_s)")
    args = ap.parse_args(argv)

    try:
        lib, ops, small, warm_ok = set_up(args.workload, args.seed)
    except ImportError as exc:
        sys.stderr.write(f"error: cannot load philang: {exc}\n")
        return 2
    if args.setup_only:
        print("ready", flush=True)
        return 0
    ledger = StepLedger()
    if args.trace:
        import layers

        rng = random.Random(f"cli-{args.seed}")
        metrics, (attempted, failed), detail = layers.traced_run(
            lib, ops, small, args.seconds, rng, ledger)
        checks_ok = detail["unfaithful_ops"] == 0 and detail["trace_on_stdout_unchanged"] \
            and detail["cli_correct"]
        metrics["error_rate"] = (failed / attempted, "ratio")
    else:
        setup_s, checks_ok = setup_seconds(args.workload, args.seed)
        metrics, (attempted, failed), detail = measure(lib, ops, args.seconds, ledger)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    ledger_text = json.dumps(ledger.steps, sort_keys=True)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "ops_attempted": attempted,
        "error_rate": failed / attempted,
        "warmup_correct": warm_ok,
        "ledger_mismatches": ledger.mismatches,
        "step_ledger": ledger.steps,
        "ledger_sha256": hashlib.sha256(ledger_text.encode()).hexdigest(),
    })
    correct = failed == 0 and warm_ok and ledger.mismatches == 0 and checks_ok
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
