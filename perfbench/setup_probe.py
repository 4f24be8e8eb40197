"""Set-up time of one workload, measured in a fresh process.

Usage (from the repository root): python3 perfbench/setup_probe.py WORKLOAD TRACE

Times the package import, the construction of the workload's codes with the
rotation cache cold, and its first frame or check; with TRACE=1 the calls
run through the benchmark's wrappers and the time per span name is reported
too.  Then times the reference kernel (median of three) so the set-up time
can be normalized to nominal machine speed.  Prints one JSON object.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from source import load_package, pin_blas  # noqa: E402


def main():
    workload_name, trace = sys.argv[1], sys.argv[2] == "1"
    pin_blas()
    load_package(os.getcwd())
    import statistics

    import workloads
    from calibrate import reference_seconds
    from spantrace import Tracer

    workload = workloads.WORKLOADS[workload_name]
    tracer = Tracer()
    if trace:
        with tracer.installed(workloads.TARGETS):
            workload.setup()
    else:
        workload.setup()
    setup_s = time.perf_counter() - T0
    span_seconds = {}
    for s in tracer.spans:
        span_seconds[s.name] = span_seconds.get(s.name, 0.0) + s.duration
    reference_s = statistics.median(reference_seconds() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "reference_s": reference_s,
                      "span_seconds": span_seconds}))


if __name__ == "__main__":
    main()
