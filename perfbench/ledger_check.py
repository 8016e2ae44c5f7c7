"""Run one workload twice with one seed and require identical step ledgers.

    python3 perfbench/ledger_check.py --workload loop --seed 7

The step ledger maps each op id to `interp.steps`. Step counts are part of
the semantics (the budget decides when a program stops), so a change that
keeps behaviour keeps the ledger; compare ledgers from two commits the same
way. Each run is `run.py --seconds 0`: the fewest whole passes over the op
list that time 11 ops, which records every op. Exits 1 when the two runs
disagree.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def ledger(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-2])["detail"]["step_ledger"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    first = ledger(args.workload, args.seed)
    second = ledger(args.workload, args.seed)
    differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for k in differ:
        print(f"{k}: {first.get(k)} != {second.get(k)}")
    print(f"{len(first)} ops, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
