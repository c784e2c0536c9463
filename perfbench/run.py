"""papernet benchmark.

    python3 perfbench/run.py --workload train|serve|evaluate|all \
        --seed N --seconds S --trace 0|1

Builds its inputs from --seed, sets up, measures for --seconds, checks every
output, and prints a summary followed, as the last line, by one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics with no wrappers installed; --trace 1 reports the
per-layer metrics. --workload all runs the three workloads one after the
other, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "serve", "evaluate")
# One BLAS thread: the box is small and shared, and a single caller with a
# single thread is the steadiest setting; the parent and a change run alike.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "papernet" / "__init__.py").is_file():
        print(f"error: papernet sources not found under {src}", file=sys.stderr)
        return 2
    # thread counts must be fixed before numpy loads its BLAS
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness
    import papernet

    if Path(papernet.__file__).resolve().parent != src / "papernet":
        print(f"error: imported papernet from {papernet.__file__}, not {src}", file=sys.stderr)
        return 2
    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    harness.print_summary(out["summary"])
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
