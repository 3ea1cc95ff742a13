"""Time one cold start of a workload and print it in seconds.

The clock starts on this file's first line, before ``import repro``, and
stops when the workload's first scenario, session or program is ready to
run: the set-up a user pays on every command-line run.

    python3 layerbench/setup_probe.py WORKLOAD SEED
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
workload.build(workload.inputs(int(sys.argv[2]), workload.size))
print(time.perf_counter() - _T0)
