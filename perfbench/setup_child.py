"""One fresh-interpreter set-up sample: import gvikit, then build a workload's inputs.

Usage: python3 perfbench/setup_child.py <workload> <seed> <size>
Prints {"import_s": ..., "build_s": ...} as its last line.  run.py starts
several of these one after another and reports the median.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(1, _HERE)

start = time.perf_counter()
import gvikit  # noqa: E402  (timed: numpy, scipy and click load here)

imported = time.perf_counter()
import json  # noqa: E402

import workloads  # noqa: E402

workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
built_at = time.perf_counter()
workloads.build(gvikit, workload, seed, workloads.Meter(), size)
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "build_s": done - built_at}))
