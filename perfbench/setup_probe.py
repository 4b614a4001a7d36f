"""One fresh-process set-up: import sws, then build a workload's fixtures.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIR

Prints ``ready {"import_s": ..., "fixtures_s": ...}`` once the fixtures are
on disk; the parent process times interpreter start to that line.
"""

import sys
import time

t0 = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import sws.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

t1 = time.perf_counter()
workloads.make(sys.argv[1], int(sys.argv[2])).build_fixtures(Path(sys.argv[3]))
print("ready " + json.dumps({"import_s": import_s, "fixtures_s": time.perf_counter() - t1}), flush=True)
