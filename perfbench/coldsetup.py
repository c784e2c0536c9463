"""Cold set-up of one workload in a fresh interpreter.

    python3 perfbench/coldsetup.py WORKLOAD WORKDIR SEED N_ROWS

WORKDIR holds the inputs the harness made. Prints one JSON object:
``import_s``, the import of numpy and papernet, and ``setup_s``, that import
plus the workload's ``setup()``, the first time this process runs it. The
workload's construction in between (reading the benchmark's own inputs) is
not counted.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> int:
    name, workdir, seed, n_rows = argv[0], argv[1], int(argv[2]), int(argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy  # noqa: F401
    import papernet.cli  # noqa: F401

    import_s = time.perf_counter() - T0
    from inputs import inputs_in
    from workloads import WORKLOADS

    workload = WORKLOADS[name](inputs_in(workdir, n_rows), Path(workdir), seed)
    t0 = time.perf_counter()
    workload.setup()
    setup_s = import_s + time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
