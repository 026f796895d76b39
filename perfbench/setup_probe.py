"""Time one workload's set-up (kstab import plus input loading) in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken.  ``run.py`` starts several of these one after
another and reports their median as ``setup_s``.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    workloads.use_source_tree()
    workload = workloads.WORKLOADS[sys.argv[1]]
    params = workload.params(int(sys.argv[2]))
    start = time.perf_counter()
    workload.setup(params)
    print(repr(time.perf_counter() - start))
