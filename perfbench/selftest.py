"""Fault-injection self-test of the benchmark's oracles.

    python3 perfbench/selftest.py

For every workload, runs one short round with ``--inject-fault``, which flips
one digit (scan_window, deep_qexp) or drops one branch (zero_locus,
irregular_census) in the first op's output before the oracles run, and
requires the corruption to show up as a failed op.  Exits 1 if any oracle
lets its corruption through.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main() -> int:
    ok = True
    for workload in sorted(run.TAIL_PCT):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0", "--inject-fault"],
            capture_output=True, text=True, cwd=HERE.parent, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        caught = result["failed"] > 0 and not result["correct"]
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload}: fail_frac {fail_frac:.4f} -> {'caught' if caught else 'MISSED'}")
        ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
