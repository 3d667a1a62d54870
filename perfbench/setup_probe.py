"""Set-up time of one workload, measured inside a fresh interpreter.

Times importing uavex (and with it numpy) plus the workload's first run: one
pass with a single run index, which pays every lazy initialisation the timed
loop then no longer sees. After the clock stops it runs the host-speed
reference once. Prints one JSON line with both times, whether uavex was still
unimported when the clock started, and the process id.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import os
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    fresh = "uavex" not in sys.modules
    import workloads  # imports uavex; part of what is timed

    workloads.run_pass(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), runs=1)
    setup_s = time.perf_counter() - t0

    from calibrate import reference

    report = {"setup_s": setup_s, "host_s": reference(), "fresh": fresh, "pid": os.getpid()}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
