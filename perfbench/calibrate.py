"""Machine-speed reference for normalizing wall times on a shared host.

On a shared 2-core box the host's speed drifts by up to 1.5x over tens of
seconds, and CPU time drifts with it, so raw wall times of identical work
spread by 20-40% between runs.  A fixed reference kernel, timed between
passes (and between the operations of a verify pass) in the same process,
slows down with the machine.  The kernel uses no
package code, so no change to the package can move it.

The kernel is small dense linear algebra plus interpreter work, like a
frame of the link simulation.  On the sweeps its time correlated 0.77 with
the pass time, and dividing by it cut the spread of pass times from 0.44 to
0.17 of their median, and that of 18-second window medians from +-45% to
+-9%.  Adding a pass over a 52 MB array, to mimic the dimension-8 scan of
`rotations.certify_rotation`, did not steady the verify workload's figures
in five-run trials, so one kernel serves every workload; timing it between
the verify operations did.

A normalized time is the wall time times NOMINAL_S over the kernel's time
around the work: the wall time the work would take on a machine that runs
the kernel in NOMINAL_S.
"""

from time import perf_counter

import numpy as np

# Median time of reference_seconds() on a 2-core shared x86-64 VM
# (2.0 GHz, Python 3.11, numpy 2.4 with single-threaded OpenBLAS).
NOMINAL_S = 0.030


def reference_seconds():
    """Wall time of one fixed run of the reference kernel."""
    start = perf_counter()
    a = np.arange(96, dtype=float).reshape(12, 8) / 7.0 + np.eye(12, 8)
    acc = 0.0
    for i in range(600):
        s = np.linalg.svd(a, compute_uv=False)
        acc += float(np.sum((a @ a.T)[i % 12])) + s[0]
    table = {}
    for i in range(60_000):
        table[i % 97] = table.get(i % 97, 0) + 3 * i
    if not acc > 0 or len(table) != 97:
        raise RuntimeError("reference kernel computed an impossible result")
    return perf_counter() - start
