"""fdcap benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it first times the import
of ``fdcap.cli`` in several fresh interpreters (``setup_s``, the median, in
reference seconds as hostspeed.py defines them).  Then it runs the workload
in a fresh process of its own (``bench/workloads.py``) and prints its
result as the last line of standard output: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1 when the
workload fails to run or the tree holds no fdcap sources.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORKLOADS = ("sweep-analytic", "validate-1w", "analyze-2w")
SETUP_RUNS = 5
TIMEOUT_S = 170
# One set-up sample: the import of fdcap.cli in a fresh interpreter, between
# two timings of the pure-Python host-speed kernel (see hostspeed.py).
IMPORT_TIMER = f"""
import sys, time
sys.path.insert(0, {BENCH!r})
import hostspeed
before = hostspeed.python_kernel()
start = time.perf_counter()
import fdcap.cli
seconds = time.perf_counter() - start
after = hostspeed.python_kernel()
print(seconds * hostspeed.PYTHON_REFERENCE_S / (0.5 * (before + after)))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fdcap", "cli.py")):
        print("no fdcap sources under src/fdcap", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def run(argv, timeout):
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout,
                              check=True)
        sys.stderr.write(done.stderr)
        return done.stdout

    deadline = time.monotonic() + TIMEOUT_S
    try:
        setup = [float(run(["-c", IMPORT_TIMER], 30))
                 for _ in range(0 if args.trace else SETUP_RUNS)]
        out = run([os.path.join(BENCH, "workloads.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                  deadline - time.monotonic())
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr)
        print(f"benchmark process exited {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"benchmark process timed out after {exc.timeout:.0f} s",
              file=sys.stderr)
        return 1
    result = json.loads(out.splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
