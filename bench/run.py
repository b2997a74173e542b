"""Benchmark entry point: run one workload in a fresh process, print its result.

    python3 bench/run.py --workload ring-layer --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  The workload runs in one child
interpreter (bench/harness.py) that imports ``ringcover`` from ``src/``; this
launcher records the moment it starts that interpreter so that set-up time
covers interpreter start, the import and input generation.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero, with no result printed, when the
workload cannot run (for instance when ``src/ringcover`` is missing).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The child is killed after this long, so a run ends well within 180 s.
CHILD_TIMEOUT_S = 170


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="run one ringcover benchmark workload")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()

    if not (ROOT / "src" / "ringcover" / "__init__.py").is_file():
        print(f"error: no ringcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", ns.workload,
           "--seed", str(ns.seed), "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"error: workload {ns.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload {ns.workload} exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    print(json.dumps(json.loads(lines[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
